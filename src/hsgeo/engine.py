"""Closed-form solution machinery: one oscillator behind every flow.

Along each characteristic the branch slopes z = u_x +- rho obey the
scalar Riccati equation dz/dt = -z^2/2 - 2c, solved by z = 2 w'(t)/w(t)
where the factor w solves the oscillator w'' = -c w, w(0) = 1,
w'(0) = z0/2 (`factor`). The Jacobian of the flow map is the product
of the two branch factors, phi_x = w_p w_q with initial slopes
p0, q0 = u0x +- rho0; for the kappa = +1 coupling the slopes are the
complex conjugates u0x +- i rho0 and phi_x = |w_p|^2. Breakdown is the
first root of a factor, which exists only for slopes below the
threshold -2 sqrt(-c) (every real slope for c > 0); sampled slopes
within rounding distance of that threshold are set onto it in one
place (`_branch_slopes`), and every breakdown reader takes them, with
the class, from one spectral derivative of the datum (`_analysis`).
Every time-t quantity of the classical flow is a `LagrangianFields`
state built from the two factors, and one reconstruction
(`eulerian_fields`) turns any such state, classical or weak, into
Eulerian fields.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .data import InitialData, _casimir, _unit_class
from .errors import BlowupReached, NotInvertible, Singular
from .grid import EPS, Grid, GridFunction, _interpolant, antiderivative_from_zero, derivative

SINGULAR_TOL = 1e-12
INVERT_TOL = 1e-8
INVERT_ITERS = 100  # bound on the safeguarded Newton iterations of _invert
INVERT_ULPS = 4  # residual or step, in rounding units, at which a label stops
BORDER_TOL = 1e-12  # floor of the slope tolerance in _branch_slopes
SCAN_BLOCK = 256  # scan steps evaluated per factor call
# kept for perfbench/tracer.py install(), which wraps it to count fallback inversions (none left)
PchipInterpolator = None


def factor(z0, c: float, t):
    """Characteristic factor w and its time derivative.

    w solves w'' = -c w with w(0) = 1, w'(0) = z0/2, for any real c.
    z0 may be complex (the conjugate slopes of the kappa = +1
    coupling). For c < 0 the factor is evaluated as
    w = e^{-st} + (1 + z0/2s) sinh st with s = sqrt(-c), which avoids
    the catastrophic cancellation of cosh st + (z0/2s) sinh st at large
    t for slopes near the threshold -2s, and keeps w(0) = 1 exact. t
    may be a scalar or an array broadcastable against z0.
    """
    z0 = np.asarray(z0)
    z0 = z0.astype(np.result_type(z0, float), copy=False)
    if c > 0:
        s = math.sqrt(c)
        w = np.cos(s * t) + 0.5 * z0 * np.sin(s * t) / s
        wt = -s * np.sin(s * t) + 0.5 * z0 * np.cos(s * t)
    elif c == 0:
        w = 1.0 + 0.5 * z0 * t
        wt = 0.5 * z0 * np.ones_like(w)
    else:
        s = math.sqrt(-c)
        half = 1.0 + 0.5 * z0 / s
        em = np.exp(-s * t)
        w = em + half * np.sinh(s * t)
        wt = s * (half * np.cosh(s * t) - em)
    return w, wt


def riccati(z0, c: float, t: float):
    """Characteristic slope 2 w'(t)/w(t) at time t.

    Accepts scalar or array z0; raises Singular when the factor
    vanishes (finite-time blow-up of the slope).
    """
    w, wt = factor(z0, c, t)
    if np.any(np.abs(w) < SINGULAR_TOL):
        raise Singular(f"slope denominator vanished at t = {t}")
    out = 2.0 * wt / w
    return out.item() if out.ndim == 0 else out


def _threshold(c: float) -> float:
    """Slope below which a real factor has a positive root."""
    return math.inf if c > 0 else -2.0 * math.sqrt(-c)


def _breaking(z: np.ndarray, c: float) -> np.ndarray:
    """Mask of the slopes whose factor has a positive root: the real
    ones below the threshold (a complex factor never vanishes)."""
    return (z.imag == 0) & (z.real < _threshold(c))


def _branch_slopes(d: InitialData, c: float, u0x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Initial slopes p0, q0 = u0x +- rho0 of the two factor branches
    (u0x +- i rho0 for kappa = +1), set onto the breakdown threshold
    where they sit within rounding distance of it.

    Spectral differentiation leaves noise of about 0.2-0.5 n eps max|z|
    in the sampled slopes of an n-node datum, so data exactly on the
    threshold -2 sqrt(-c) (or, for kappa = +1, on the real axis) would
    otherwise get spurious huge root times, and the weak flow terms
    growing like sinh^2 t. Slopes within 8 n eps max|z|, and never less
    than BORDER_TOL, of the threshold are taken to be on it. u0x holds
    the samples of the datum's velocity gradient.
    """
    r0 = d.rho0.values
    tol = max(BORDER_TOL, 8.0 * u0x.size * EPS * float((np.abs(u0x) + np.abs(r0)).max()))
    if d.kappa == 1:
        r0 = 1j * np.where(np.abs(r0) <= tol, 0.0, r0)
        return u0x + r0, u0x - r0
    thr = _threshold(c)
    p0, q0 = u0x + r0, u0x - r0
    return np.where(np.abs(p0 - thr) <= tol, thr, p0), np.where(np.abs(q0 - thr) <= tol, thr, q0)


def _analysis(d: InitialData, c="normalized"):
    """Class of a datum and its branch slopes, from one spectral derivative.

    c chooses the class whose breakdown threshold the slopes are set
    onto (`_branch_slopes`): "normalized" takes the normalized class and
    returns it (ValueError for data that is not normalized); "casimir"
    takes the Casimir itself, as the pseudosphere geodesics of unscaled
    data need, and returns it; a number is used as given, and the
    Casimir is returned. Every breakdown reader takes its slopes here,
    so each call differentiates the datum once.
    """
    u0x = d.u0x.values
    cas = _casimir(d, u0x)
    if c == "normalized":
        c = cas = _unit_class(d, u0x, cas)
    elif c == "casimir":
        c = cas
    return cas, _branch_slopes(d, c, u0x)


def factor_root_times(z0, c: float) -> np.ndarray:
    """First positive zero of the characteristic factor, +inf where none.

    Only real slopes strictly below the threshold -2 sqrt(-c) have one
    (every real slope for c > 0); slopes exactly on it do not.
    """
    z0 = np.asarray(z0)
    out = np.full(z0.shape, np.inf)
    hit = _breaking(z0, c)
    z = z0[hit].real
    if c > 0:
        s = math.sqrt(c)
        out[hit] = (np.pi / 2.0 + np.arctan(z / (2.0 * s))) / s
    elif c == 0:
        out[hit] = -2.0 / z
    else:
        s = math.sqrt(-c)
        out[hit] = np.log((z - 2.0 * s) / (z + 2.0 * s)) / (2.0 * s)
    return out


def blowup_time(d: InitialData) -> float:
    """First time the flow map loses injectivity (min phi_x hits zero).

    Computed as the earliest factor root over both characteristic
    branches and all nodes; +inf when no factor ever vanishes.
    """
    return _first_root(*_analysis(d))


def _first_root(c: float, slopes) -> float:
    """Earliest factor root over both branches of slopes."""
    return float(min(factor_root_times(z, c).min() for z in slopes))


def singular_time_literal(d: InitialData) -> float:
    """Literal transcription of the breakdown-time formula, for comparison.

    This takes the infimum of the branch slopes *inside* the outer
    concave map. For c = -1 that map (arccoth of y = -z/2) is
    decreasing, so the expression picks the last per-node root rather
    than the first and can disagree with blowup_time; both are reported
    by the CLI.
    """
    c, slopes = _analysis(d)
    picks = []
    for z in slopes:
        z = z[_breaking(z, c)].real
        if z.size:
            picks.append(z.max() if c == -1 else z.min())
    return float(factor_root_times(np.array(picks), c).min()) if picks else math.inf


def _scan_bisect(c: float, z: np.ndarray, t_max: float, step: float) -> float:
    """First zero of a factor over the breaking slopes among z, by scan
    and multisection; +inf if none before t_max.

    The factors are scanned in steps of `step` for a sign change, and
    the first bracket is refined by the same vectorised factor call:
    SCAN_BLOCK equispaced interior times per call, keeping the first
    sign change, until no float lies strictly between its ends, whose
    upper one is returned. The closed-form root expressions are not
    used. A scan costs one factor call per SCAN_BLOCK steps, the
    refinement about log(step / ulp) / log(SCAN_BLOCK) calls, 5 to 7 for
    the default step. Factor roots are always simple (the factor solves
    a linear second-order equation with unit initial value), so this
    detects breakdown even where the two branches coincide and min phi_x
    only touches zero. At each t the factor is affine in the slope, so
    its minimum over the breaking slopes sits at the smallest or the
    largest one: only those two are scanned.
    """
    z = z[_breaking(z, c)].real
    if z.size == 0:
        return math.inf
    ends = np.array([z.min(), z.max()])
    t = 0.0
    while t < t_max:
        ts = np.minimum(t + step * np.arange(1, SCAN_BLOCK + 1), t_max)
        w = factor(ends, c, ts[:, None])[0]
        rows = np.nonzero((w <= 0.0).any(axis=1))[0]
        if rows.size:
            k = rows[0]
            ends = ends[w[k] <= 0.0]
            lo, hi = (ts[k - 1] if k else t), ts[k]
            while np.nextafter(lo, hi) < hi:
                ts = np.linspace(lo, hi, SCAN_BLOCK + 2)[1:-1]
                neg = (factor(ends, c, ts[:, None])[0] <= 0.0).any(axis=1)
                k = int(neg.argmax()) if neg.any() else SCAN_BLOCK
                lo, hi = (ts[k - 1] if k else lo), (ts[k] if k < SCAN_BLOCK else hi)
            return float(hi)
        t = float(ts[-1])
    return math.inf


def blowup_time_bisect(d: InitialData, t_max: float = 20.0, step: float = 1e-3) -> float:
    """Breakdown time of normalized data located by scan and
    multisection (`_scan_bisect`), +inf if none found; independent of
    the closed-form roots used by blowup_time."""
    c, z = _analysis(d)
    z = np.concatenate(z)
    return _scan_bisect(c, z, t_max, step)


def is_global(d: InitialData) -> bool:
    """Whether the normalized flow exists for all time.

    Only the c = -1 class admits global solutions; the criterion is the
    pointwise bound |rho0| <= u0x + 2 (both branch slopes stay >= -2).
    """
    c, (p0, q0) = _analysis(d)
    return c == -1 and not (_breaking(p0, c).any() or _breaking(q0, c).any())


@dataclass(frozen=True)
class LagrangianFields:
    """Flow state at time t in label coordinates.

    phi is the flow map (phi(0) = 0, and phi - x is periodic), phi_t
    its velocity, phi_x and phi_tx their label derivatives, and
    rho = rho0 / phi_x the density carried along the flow. The
    classical flow of either coupling (lagrangian_fields) and the
    global weak flow (weak.WeakState) share this state.
    """

    # eulerian_fields refuses a classical state this close to folding;
    # the weak continuation passes through degenerate labels by design
    refuse_degenerate: ClassVar[bool] = True

    t: float
    kappa: int
    phi: GridFunction
    phi_t: GridFunction
    phi_x: GridFunction
    phi_tx: GridFunction
    rho: GridFunction

    @property
    def ux(self) -> GridFunction:
        """Eulerian velocity gradient along the flow, phi_tx / phi_x."""
        return self.phi_tx / self.phi_x


def lagrangian_fields(d: InitialData, t: float) -> LagrangianFields:
    """Classical flow state at time t (normalized data): the product
    of the two branch factors, refused at or past breakdown."""
    c, (p0, q0) = _analysis(d)
    if t < 0:
        raise ValueError(f"time must be nonnegative, got {t}")
    tstar = _first_root(c, (p0, q0))
    if t >= tstar:
        raise BlowupReached(f"t = {t} is not below the breakdown time {tstar:.6g}")
    wp, wtp = factor(p0, c, t)
    wq, wtq = factor(q0, c, t)
    grid = d.grid
    phi_x = grid.function((wp * wq).real)
    phi_tx = grid.function((wtp * wq + wp * wtq).real)
    return LagrangianFields(
        t, d.kappa, antiderivative_from_zero(phi_x), antiderivative_from_zero(phi_tx),
        phi_x, phi_tx, d.rho0 / phi_x,
    )


def _invert(phi: np.ndarray, grid: Grid) -> np.ndarray:
    """Labels xi with phi(xi) = x_j at the grid nodes, for a
    nondecreasing phi with phi(0) = 0 and unit winding.

    The node values of phi bracket each label between two adjacent grid
    labels (`searchsorted`). Newton iteration on the trigonometric
    interpolant of phi - x and its slope (`grid._interpolant`) starts
    from the secant of the bracket; a step that leaves the bracket is
    replaced by its midpoint, and every residual shrinks the bracket by
    its sign, so degenerate labels (phi_x at or near zero) converge too.
    A label stops once its residual or its step is a few rounding units;
    converged labels leave the active set. NotInvertible is raised if
    some label has not converged within INVERT_ITERS iterations.

    Cost per call: O(n log n) to oversample phi - x and its slope, plus
    O(n STENCIL) per iteration over the labels still active; O(n STENCIL)
    memory.
    """
    x = grid.x
    bump = GridFunction(grid, phi - x)
    at = _interpolant(bump.values, 1.0 + derivative(bump).values)
    ends = np.append(phi, phi[0] + 1.0)
    k = np.clip(np.searchsorted(ends, x, side="right"), 1, grid.n)
    lo, hi = (k - 1) * grid.h, k * grid.h
    with np.errstate(divide="ignore", invalid="ignore"):
        frac = (x - ends[k - 1]) / (ends[k] - ends[k - 1])
    xi = lo + grid.h * np.clip(np.nan_to_num(frac, nan=0.5), 0.0, 1.0)
    act = np.arange(grid.n)
    for _ in range(INVERT_ITERS):
        pt = xi[act]
        b, sl = at(pt)
        res = pt + b - x[act]
        above = res > 0.0
        lo[act] = left = np.where(above, lo[act], pt)
        hi[act] = right = np.where(above, pt, hi[act])
        with np.errstate(divide="ignore", invalid="ignore"):
            new = pt - res / sl
        out = ~((new >= left) & (new <= right))
        new[out] = 0.5 * (left + right)[out]
        xi[act] = new
        done = (np.abs(res) <= INVERT_ULPS * EPS) | (np.abs(new - pt) <= INVERT_ULPS * EPS)
        act = act[~done]
        if act.size == 0:
            return xi
    raise NotInvertible(f"{act.size} inverse labels unconverged after {INVERT_ITERS} iterations")


def compose_with_inverse(phi: np.ndarray, samples, grid: Grid) -> np.ndarray:
    """Samples of s(phi^{-1}(y)) at the grid nodes.

    phi must be nondecreasing with phi(0) = 0 and unit winding
    (phi(x+1) = phi(x) + 1); samples are the values of s at the same
    label nodes, one column (n,) or several (k, n), and the result has
    the same shape. The inverse labels are found once (`_invert`), and
    every column is evaluated there through its trigonometric
    interpolant, so band-limited inputs compose with spectral accuracy,
    also where phi_x vanishes.

    Cost per call: O(n log n) per column plus the inversion.
    """
    one = np.ndim(samples) == 1
    cols = [GridFunction(grid, s).values for s in ([samples] if one else samples)]
    xi = _invert(phi, grid)  # its brackets are freed before the columns are oversampled
    out = _interpolant(*cols)(xi)
    return out[0] if one else np.array(out)


def eulerian_fields(s: LagrangianFields) -> tuple[GridFunction, GridFunction]:
    """(u, rho) on the fixed spatial grid from a flow state.

    The velocity phi_t, the initial density rho0 = rho phi_x and phi_x
    are composed with the inverse flow map, and rho is rho0 / phi_x at
    the inverse labels: the ratio itself is not band-limited once phi_x
    is tiny, and composing it loses rho to 3e-3 at t = 5 on a datum
    whose phi_x meets its e^{-2t} floor. u(0) is pinned to 0
    (phi(0) = 0 and phi_t(0) = 0). A classical state with min phi_x
    below INVERT_TOL is refused.
    """
    if s.refuse_degenerate and s.phi_x.min() < INVERT_TOL:
        raise NotInvertible(f"min phi_x = {s.phi_x.min():.3e} below {INVERT_TOL:.0e} at t = {s.t}")
    grid = s.phi.grid
    px = s.phi_x.values
    cols = (s.phi_t.values, s.rho.values * px, px)
    u, rho0, phi_x = compose_with_inverse(s.phi.values, cols, grid)
    u[0] = 0.0
    return GridFunction(grid, u), GridFunction(grid, rho0 / phi_x)


def eulerian_solution(d: InitialData, t: float) -> tuple[GridFunction, GridFunction]:
    """(u, rho) on the fixed spatial grid, by inverting the flow map."""
    return eulerian_fields(lagrangian_fields(d, t))
