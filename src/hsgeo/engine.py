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
the class, from the velocity gradient the datum keeps (`_analysis`),
so a datum is differentiated once however many readers it meets. The
clocks set, scan and root-solve the slopes in place (`_branch_slopes`,
`_end`, `_roots`), so they hold little more than the two slope arrays.
A datum analysed at a class is one `Flow` (`_flow`): its class, slopes
and breakdown clock, from which it gives the branch factors and the flow
state at any time. The classical flow, the global weak flow, the
pseudosphere geodesic and the oracle's reference are each such a Flow,
and one reconstruction (`eulerian_fields`) turns any flow state into
Eulerian fields.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import ClassVar

import numpy as np

from .data import InitialData, _unit_class
from .errors import BlowupReached, FactorOverflow, NotInvertible, Singular
from .grid import EPS, Grid, GridFunction, _antiderivative, _interpolant, derivative, integrate

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
    if np.iscomplexobj(z):
        return (z.imag == 0) & (z.real < _threshold(c))
    return z < _threshold(c)


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
    size = np.abs(u0x)
    size += np.abs(r0)
    tol = max(BORDER_TOL, 8.0 * u0x.size * EPS * float(size.max()))
    if d.kappa == 1:
        r0 = 1j * np.where(np.abs(r0) <= tol, 0.0, r0)
        return u0x + r0, u0x - r0
    thr = _threshold(c)
    p0, q0 = u0x + r0, u0x - r0
    gap = size  # reused: the slopes are set in place, with no array per branch
    for z in (p0, q0):
        np.subtract(z, thr, out=gap)
        np.abs(gap, out=gap)
        z[gap <= tol] = thr
    return p0, q0


def _analysis(d: InitialData, c="normalized"):
    """Class of a datum and its branch slopes, set at that class, from its
    velocity gradient.

    c chooses the class whose breakdown threshold the slopes are set
    onto (`_branch_slopes`), and that class is returned: "normalized"
    takes the normalized class (ValueError for data that is not
    normalized), except that the class -1 is read at the datum's own
    Casimir; a number, such as the Casimir a pseudosphere geodesic of
    unscaled data runs at, is taken as given. A Casimir that misses -1
    leaves half-slopes of the size of the miss where they should vanish,
    and a slope on the threshold of one class can lie below that of the
    other, so a clock read at -1 could pass a flow that folds or breaks
    at its own class (fig1c scaled by 1 - 1e-11 past t = 12): the clocks
    and every flow read one set of slopes. Every breakdown reader takes
    its slopes here, from the gradient the datum keeps
    (`InitialData.u0x`), so a datum is differentiated once however many
    readers it meets.
    """
    u0x = d.u0x.values
    if c == "normalized":
        c = _unit_class(d, u0x, d._casimir)
        if c == -1:
            c = d._casimir
    return c, _branch_slopes(d, c, u0x)


def factor_root_times(z0, c: float) -> np.ndarray:
    """First positive zero of the characteristic factor, +inf where none.

    Only real slopes strictly below the threshold -2 sqrt(-c) have one
    (every real slope for c > 0); slopes exactly on it do not.
    """
    z0 = np.asarray(z0)
    out = np.full(z0.shape, np.inf)
    hit = _breaking(z0, c)
    out[hit] = _roots(z0[hit].real, c)
    return out


def _roots(z: np.ndarray, c: float) -> np.ndarray:
    """Factor roots of the breaking slopes z, computed in place in z:
    with s = sqrt|c|, arctan2(2s, -z)/s for c > 0 and log1p(4s/(-z - 2s))/(2s)
    for c < 0, which keep full accuracy as c -> 0, where pi/2 + arctan(z/2s)
    and the log of (z - 2s)/(z + 2s), a ratio 1 + O(s), lose eps/s."""
    if c == 0:
        return np.divide(-2.0, z, out=z)
    s = math.sqrt(abs(c))
    np.negative(z, out=z)
    if c > 0:
        np.arctan2(2.0 * s, z, out=z)
        z /= s
    else:
        z -= 2.0 * s
        np.divide(4.0 * s, z, out=z)
        np.log1p(z, out=z)
        z /= 2.0 * s
    return z


def blowup_time(d: InitialData) -> float:
    """First time the flow map loses injectivity (min phi_x hits zero).

    Computed as the earliest factor root over both characteristic
    branches and all nodes (`Flow.t_star`); +inf when no factor ever
    vanishes.
    """
    return _flow(d).t_star


def singular_time_literal(d: InitialData) -> float:
    """Literal transcription of the breakdown-time formula, for comparison.

    This takes the infimum of the branch slopes *inside* the outer
    concave map. For c < 0 that map (arccoth of y = -z/2 sqrt(-c)) is
    decreasing, so the expression picks the last per-node root rather
    than the first and can disagree with blowup_time; both are reported
    by the CLI.
    """
    return _literal(*_analysis(d))


def _literal(c: float, slopes) -> float:
    """`singular_time_literal` of the branch slopes of class c."""
    picks = []
    for z in slopes:
        hit = _breaking(z, c)
        if hit.any():
            picks.append(_end(z, hit, c < 0))
    return float(factor_root_times(np.array(picks), c).min()) if picks else math.inf


def _end(z: np.ndarray, hit: np.ndarray, top: bool) -> float:
    """Largest (top) or smallest slope of z where hit is set, with no copy."""
    return (np.max if top else np.min)(z.real, where=hit, initial=-math.inf if top else math.inf)


def _scan_bisect(c: float, slopes, t_max: float, step: float) -> float:
    """First zero of a factor over the breaking slopes of both branches,
    by scan and multisection; +inf if none before t_max.

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
    largest one: only those two are scanned, read off each branch in
    place.
    """
    lo, hi = math.inf, -math.inf
    for z in slopes:
        hit = _breaking(z, c)
        lo, hi = min(lo, _end(z, hit, False)), max(hi, _end(z, hit, True))
    if lo == math.inf:
        return math.inf
    ends = np.array([lo, hi])
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
    return _scan_bisect(*_analysis(d), t_max, step)


def is_global(d: InitialData) -> bool:
    """Whether the normalized flow exists for all time: its breakdown
    clock (`blowup_time`) reads +inf."""
    return math.isinf(blowup_time(d))


@dataclass(frozen=True)
class LagrangianFields:
    """Flow state at time t in label coordinates.

    phi is the flow map (phi(0) = 0, and phi - x is periodic), phi_t
    its velocity, phi_x and phi_tx their label derivatives, and
    rho = rho0 / phi_x the density carried along the flow. The
    classical flow of either coupling (lagrangian_fields) and the
    global weak flow (WeakState) share this state and its assembly
    (`Flow.state`).
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


@dataclass(frozen=True)
class WeakState(LagrangianFields):
    """Flow state of the global weak flow, with the chart coordinates.

    f1 and f2 are the two components of the geodesic on the
    pseudosphere, phi_x = f1^2 - f2^2, and alpha is the twist, whose
    rate alpha_t is the density rho along the flow.
    """

    refuse_degenerate: ClassVar[bool] = False

    f1: GridFunction
    f2: GridFunction
    alpha: GridFunction

    @property
    def alpha_t(self) -> GridFunction:
        return self.rho

    @property
    def floor(self) -> float:
        """Lower bound e^{-2t} of phi_x along the weak flow."""
        return math.exp(-2.0 * self.t)

    def __post_init__(self):
        if abs(self.phi.values[0]) > 1e-9:
            raise ValueError("phi(0) must vanish")
        if abs(integrate(self.phi_x) - 1.0) > 1e-9:
            raise ValueError("phi must have unit winding")
        if np.diff(self.phi.values).min() < -1e-12:
            raise ValueError("phi must be nondecreasing")
        if self.phi_x.values.min() < self.floor - 1e-9:
            raise ValueError("phi_x fell below the admissible lower bound")


@dataclass(frozen=True, eq=False)
class Flow:
    """The flow of one datum, analysed once at the class c (`_flow`):
    its branch slopes p0, q0 set at c and its clock t_star, the earliest
    factor root (+inf where none). It is the classical flow, refused at
    or past t_star; with admissible set, the global weak flow
    (`weak.flow`); at the Casimir of a kappa = -1 datum, its geodesic on
    the pseudosphere (`sphere._geodesic_flow`), whose chart components
    f1 +- f2 are the branch factors. A run of T output times costs one
    O(n) analysis plus T states; the flow keeps the two slopes and, from
    its first state at c < 0, the projected half-slope product.
    """

    datum: InitialData
    c: float
    slopes: tuple = field(repr=False)
    t_star: float
    admissible: bool = False

    def factors(self, t: float):
        """(w_p, w_p'), (w_q, w_q'): the branch factors and rates at t;
        FactorOverflow where one leaves the float range (sinh st past
        st = 710 for c = -s^2), which `state` meets first."""
        p0, q0 = self.slopes
        try:
            with np.errstate(over="raise"):
                return factor(p0, self.c, t), factor(q0, self.c, t)
        except FloatingPointError:
            raise FactorOverflow(f"the branch factors overflow the float range at t = {t:g}") from None

    @functools.cached_property
    def _product(self) -> np.ndarray:
        """Product hp hq of the half-slopes h = 1 + z0/2s (c < 0), less its mean."""
        p0, q0 = self.slopes
        s = math.sqrt(-self.c)
        r0 = (1.0 + 0.5 * p0 / s) * (1.0 + 0.5 * q0 / s)
        r0 -= r0.mean()
        return r0

    def state(self, t: float) -> LagrangianFields:
        """Flow state at time t: a WeakState on the weak flow, whose chart
        components are f1 +- f2 = w_p, w_q, and whose alpha_t =
        rho0 / phi_x exactly (the Wronskian of the two factor branches
        is constant in time and equals rho0)."""
        return self._state(t)[0]

    def _state(self, t: float):
        """Flow state at time t (`state`) and the branch-factor rates
        w_p', w_q'.

        phi_x = w_p w_q and phi_tx is its rate. For c >= 0, and so for
        every kappa = +1 datum, they are products of the factors and
        rates. For c < 0 the product is expanded over e^{-2st},
        e^{-st} sinh st and sinh^2 st with s = sqrt(-c), whose
        coefficients are 1, hp + hq and hp hq less its mean
        (`_product`): the product of the rates would cancel terms of
        size e^{2st} in phi_tx and let the winding of phi and the
        periodicity of phi_t drift by rounding times e^{2st}. The mean of
        hp hq is the defect of the datum's Casimir from c, over -c: it
        vanishes on data of class c, so its float residue is projected
        out, once per flow, before it meets e^{2st}. Slopes set onto the
        threshold -2s by `_branch_slopes` have half-slope exactly 0. phi
        and phi_t are one stacked antiderivative of (phi_x, phi_tx).

        Cost per state: O(n log n) time (two FFT calls) and O(n) memory.
        """
        if t < 0:
            raise ValueError(f"time must be nonnegative, got {t}")
        if t >= self.t_star:
            raise BlowupReached(f"t = {t} is not below the breakdown time {self.t_star:.6g}")
        c, (p0, q0) = self.c, self.slopes
        (wp, vp), (wq, vq) = self.factors(t)
        if c < 0:
            s = math.sqrt(-c)
            r0 = self._product
            em, sh, ch = math.exp(-s * t), math.sinh(s * t), math.cosh(s * t)
            em2, ssum = em * em, (1.0 + 0.5 * p0 / s) + (1.0 + 0.5 * q0 / s)
            phi_x = em2 + ssum * (em * sh) + r0 * (sh * sh)
            phi_tx = s * (-2.0 * em2 + ssum * em2 + r0 * (2.0 * sh * ch))
        else:
            phi_x, phi_tx = (wp * wq).real, (vp * wq + wp * vq).real
        phi, phi_t = _antiderivative(np.stack((phi_x, phi_tx)))
        d, grid = self.datum, self.datum.grid
        phi_x = grid.function(phi_x)
        fields = (t, d.kappa, grid.function(phi), grid.function(phi_t), phi_x,
                  grid.function(phi_tx), d.rho0 / phi_x)
        if not self.admissible:
            return LagrangianFields(*fields), vp, vq
        chart = (grid.function(0.5 * (wp + wq)), grid.function(0.5 * (wp - wq)),
                 grid.function(np.log(wp) - np.log(wq)))
        return WeakState(*fields, *chart), vp, vq


def _flow(d: InitialData, c="normalized") -> Flow:
    """The flow of d analysed at the class c (`_analysis`), with its clock:
    the root of the least breaking slope over both branches, read in
    place, as a root falls with its slope."""
    c, slopes = _analysis(d, c)
    low = min(_end(z, _breaking(z, c), False) for z in slopes)
    t_star = float(_roots(np.array([low]), c)[0]) if low < math.inf else math.inf
    return Flow(d, c, slopes, t_star)


def lagrangian_fields(d: InitialData, t: float) -> LagrangianFields:
    """Classical flow state at time t (normalized data), refused at or
    past breakdown; one time of `_flow`.

    Data of the class -1 flows, and is refused, at its own Casimir
    (`_analysis`), as the weak flow does.
    """
    return _flow(d).state(t)


def _bracket(phi: np.ndarray, phi_x: np.ndarray, x: np.ndarray, h: float):
    """Bracket [lo, hi] between adjacent grid labels of each label xi with
    phi(xi) = x, from the node values of phi (`searchsorted`), and the
    start of its Newton iteration: one Newton step, from the secant
    point, on the cubic Hermite interpolant of the bracket's ends, which
    hold phi and phi_x; the secant point itself where that step leaves
    the bracket."""
    n = phi.size
    ends = np.append(phi, phi[0] + 1.0)
    k = np.clip(np.searchsorted(ends, x, side="right"), 1, n)
    fa, gap = ends[k - 1], ends[k] - ends[k - 1]
    da, db = h * phi_x[k - 1], h * phi_x[k % n]
    with np.errstate(divide="ignore", invalid="ignore"):
        tau = np.clip(np.nan_to_num((x - fa) / gap, nan=0.5), 0.0, 1.0)
        one = 1.0 - tau
        herm = fa + tau * (gap * tau * (3.0 - 2.0 * tau) + one * (da * one - db * tau)) - x
        slope = 6.0 * gap * tau * one + da * one * (1.0 - 3.0 * tau) - db * tau * (2.0 - 3.0 * tau)
        step = tau - herm / slope
    tau = np.where((step >= 0.0) & (step <= 1.0), step, tau)
    lo = (k - 1) * h
    return lo, k * h, lo + h * tau


def _invert(phi: np.ndarray, phi_x: np.ndarray, grid: Grid) -> np.ndarray:
    """Labels xi with phi(xi) = x_j at the grid nodes, for a
    nondecreasing phi with phi(0) = 0 and unit winding, whose slope
    samples are phi_x.

    Each label starts inside its bracket between two adjacent grid
    labels, about h^4 from it where phi is smooth (`_bracket`). Newton
    iteration on the trigonometric interpolants of phi - x and phi_x
    (`grid._interpolant`, one stack) follows; a step that leaves the
    bracket is replaced by its midpoint, and every residual shrinks the
    bracket by its sign, so degenerate labels (phi_x at or near zero)
    converge too. A label stops once its residual or its step is a few
    rounding units; converged labels leave the active set. NotInvertible
    is raised if some label has not converged within INVERT_ITERS
    iterations.

    Cost per call: O(n log n) to oversample phi - x and phi_x (one rfft
    and one irfft), plus O(n STENCIL) per iteration over the labels still
    active, two iterations on a resolved flow; O(n STENCIL) memory.
    """
    x = grid.x
    at = _interpolant(np.stack((phi - x, phi_x)))
    lo, hi, xi = _bracket(phi, phi_x, x, grid.h)
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


def compose_with_inverse(phi: np.ndarray, samples, grid: Grid, phi_x=None) -> np.ndarray:
    """Samples of s(phi^{-1}(y)) at the grid nodes.

    phi must be nondecreasing with phi(0) = 0 and unit winding
    (phi(x+1) = phi(x) + 1); samples are the values of s at the same
    label nodes, one column (n,) or several (k, n), and the result has
    the same shape. phi_x, the slope samples of phi, is its spectral
    derivative unless given. The inverse labels are found once
    (`_invert`), and every column is evaluated there through its
    trigonometric interpolant, so band-limited inputs compose with
    spectral accuracy, also where phi_x vanishes.

    Cost per call: O(n log n) per column plus the inversion: four FFT
    calls with phi_x given, two to oversample phi - x and phi_x and two
    for the stack of columns, and two more to differentiate phi - x.
    """
    if phi_x is None:
        phi_x = 1.0 + derivative(GridFunction(grid, phi - grid.x)).values
    xi = _invert(phi, phi_x, grid)  # its brackets and fine columns are freed before the stack is built
    one = np.ndim(samples) == 1
    cols = np.array([GridFunction(grid, s).values for s in ([samples] if one else samples)])
    out = _interpolant(cols)(xi)
    return out[0] if one else out


def eulerian_fields(s: LagrangianFields) -> tuple[GridFunction, GridFunction]:
    """(u, rho) on the fixed spatial grid from a flow state.

    The velocity phi_t, the initial density rho0 = rho phi_x and phi_x
    are composed with the inverse flow map, whose Newton slope is the
    state's phi_x, and rho is rho0 / phi_x at the inverse labels: the
    ratio itself is not band-limited once phi_x is tiny, and composing it
    loses rho to 3e-3 at t = 5 on a datum whose phi_x meets its e^{-2t}
    floor. u(0) is pinned to 0 (phi(0) = 0 and phi_t(0) = 0). A
    classical state with min phi_x below INVERT_TOL is refused; a state
    that passes degenerate labels divides by the composed phi_x held at
    the state's floor, which it can round below (to 0.0 where the floor
    is e^{-40}).

    Cost per call: O(n log n) time, four FFT calls (six per frame with
    the two of the state's assembly) and three stencil passes on a
    resolved flow; O(n STENCIL) memory, at most three oversampled
    columns at once.
    """
    if s.refuse_degenerate and s.phi_x.min() < INVERT_TOL:
        raise NotInvertible(f"min phi_x = {s.phi_x.min():.3e} below {INVERT_TOL:.0e} at t = {s.t}")
    grid = s.phi.grid
    px = s.phi_x.values
    cols = (s.phi_t.values, s.rho.values * px, px)
    u, rho0, phi_x = compose_with_inverse(s.phi.values, cols, grid, px)
    u[0] = 0.0
    if not s.refuse_degenerate:
        np.maximum(phi_x, s.floor, out=phi_x)
    return GridFunction(grid, u), GridFunction(grid, rho0 / phi_x)


def eulerian_solution(d: InitialData, t: float) -> tuple[GridFunction, GridFunction]:
    """(u, rho) on the fixed spatial grid, by inverting the flow map."""
    return eulerian_fields(lagrangian_fields(d, t))
