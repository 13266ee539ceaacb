"""Method-of-lines reference integrator for the two-component system.

Validates the closed-form engines on smooth data by integrating the
Eulerian equations directly: pseudospectral derivatives, classical
fixed-step fourth-order Runge-Kutta, optional 2/3-rule dealiasing of
the quadratic products. Deliberately independent of every closed-form
path in the package.
"""

import math
from dataclasses import dataclass
from itertools import chain, repeat

import numpy as np

from .data import InitialData, casimir
from .engine import Flow, _flow, eulerian_fields
from .errors import StepUnstable
from .grid import GridFunction, derivative, integrate

SAFETY_MARGIN = 0.05
SUP_LIMIT = 1e6
# cap on RK4 steps x grid nodes of one march through a time list (`_check_work`):
# 2^24 admits 4096 steps at n = 4096, i.e. t = 0.5 at the largest step 0.5/n
MAX_STEP_NODES = 2**24


@dataclass(frozen=True)
class OracleConfig:
    """Integrator knobs of the classical RK4 march; the grid is the datum's."""

    dt: float = 1e-3
    dealias: bool = True

    def __post_init__(self):
        if not self.dt > 0.0:
            raise ValueError("dt must be positive")


def _kernel(n: int, kappa: int, dealias: bool):
    """The map s -> (s_t, u, rho) on the (2, n/2 + 1) rfft spectra s of
    (u, rho) on the n-point grid; u and rho are the samples of s.

    With q = u_x^2 + kappa rho^2, the normalized A^{-1} d/dx q is -(P - P(0))
    for P the periodic antiderivative of q - mean(q) without its Nyquist
    mode, so u_t = P/2 - u u_x - P(0)/2; the constant -P(0)/2 enters as
    -n P(0)/2 on mode 0. The 2/3 rule, when on, filters the three
    products. Two FFT calls: the stacked irfft of (u, u_x, rho) and the
    stacked rfft of the three products.
    """
    k = np.fft.rfftfreq(n, d=1.0 / n)
    ik = 2j * np.pi * k
    ik[-1] = 0.0  # the Nyquist mode is annihilated to keep derivatives real
    mask = (k <= n / 3.0) if dealias else np.ones(k.size)
    half = np.zeros(k.size, dtype=complex)
    half[1:-1] = 0.5 * mask[1:-1] / ik[1:-1]
    flux = -ik * mask
    # the stacked inputs of the two batched FFT calls, refilled by every call
    spec = np.empty((3, k.size), dtype=complex)
    prods = np.empty((3, n))

    def f(s: np.ndarray):
        spec[0] = s[0]
        np.multiply(ik, s[0], out=spec[1])
        spec[2] = s[1]
        u, ux, rho = np.fft.irfft(spec, n)
        np.add(ux * ux, kappa * (rho * rho), out=prods[0])
        np.multiply(u, ux, out=prods[1])
        np.multiply(u, rho, out=prods[2])
        q, adv, mass = np.fft.rfft(prods)
        ph = half * q
        st = np.empty((2, k.size), dtype=complex)
        np.subtract(ph, mask * adv, out=st[0])
        # n P(0)/2: n times the value at x = 0 of a spectrum with no mean or Nyquist mode
        st[0, 0] -= 2.0 * ph.real.sum()
        np.multiply(flux, mass, out=st[1])
        return st, u, rho

    return f


def rhs(
    u: GridFunction, rho: GridFunction, kappa: int = -1, dealias: bool = True
) -> tuple[GridFunction, GridFunction]:
    """Time derivatives (u_t, rho_t) of the Eulerian system.

    u_t = -u u_x - 1/2 A^{-1} d/dx (u_x^2 + kappa rho^2) with A = -d2/dx2
    normalized to vanish at x = 0, which keeps the u(0) = 0 gauge of the
    flow-map picture. rho_t = -(u rho)_x in conservative form, so the
    density mean is preserved exactly by the spatial discretization.
    """
    gr = u.grid
    s = np.fft.rfft(np.stack((u.values, rho.values)))
    ut, rhot = np.fft.irfft(_kernel(gr.n, kappa, dealias)(s)[0], gr.n)
    return gr.function(ut), gr.function(rhot)


def _bounded(u: np.ndarray, rho: np.ndarray) -> None:
    if not (np.abs(u).max() <= SUP_LIMIT and np.abs(rho).max() <= SUP_LIMIT):
        raise StepUnstable(f"field sup-norm exceeded {SUP_LIMIT:g} or turned non-finite "
                           "during the march")


def _step(s: np.ndarray, dt: float, f) -> np.ndarray:
    """One RK4 step of the spectra s; the samples of s, which stage 1
    produces, are checked on the way."""
    k1, u, rho = f(s)
    _bounded(u, rho)
    k2 = f(s + 0.5 * dt * k1)[0]
    k3 = f(s + 0.5 * dt * k2)[0]
    k4 = f(s + dt * k3)[0]
    return s + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def _steps(span: float, dt: float) -> tuple[int, float]:
    """Full RK4 steps of dt over span, and the remainder step (0.0 if none)."""
    nfull = int(math.floor(span / dt + 1e-12))
    rem = span - nfull * dt
    return nfull, (rem if rem > 1e-12 else 0.0)


def _check_work(n: int, times, cfg: OracleConfig) -> None:
    """Refuse a march through the sorted times on n nodes whose RK4 steps
    (counted as at least one) times n exceed MAX_STEP_NODES. It allocates
    nothing of size n, so it can run before the datum is built."""
    steps = 0
    for t0, t1 in zip([0.0] + times, times):
        if (t1 - t0) / cfg.dt > MAX_STEP_NODES:  # also where the ratio overflows
            steps = MAX_STEP_NODES + 1
            break
        nfull, rem = _steps(t1 - t0, cfg.dt)
        steps += nfull + (rem > 0.0)
    if max(steps, 1) * n > MAX_STEP_NODES:
        raise ValueError(f"RK4 steps x nodes of the march exceed MAX_STEP_NODES = "
                         f"{MAX_STEP_NODES} (n = {n}, dt = {cfg.dt:g})")


def _march(d: InitialData, t0: float, t1: float, u, rho, cfg: OracleConfig):
    """RK4 steps of cfg.dt from t0, then a remainder step to t1, on the
    rfft spectra of (u, rho): one rfft in, two FFT calls per stage, one
    irfft out. Every state the march reaches, the last one included, is
    checked: a field whose sup-norm exceeds SUP_LIMIT or is not finite
    raises StepUnstable."""
    n = d.grid.n
    f = _kernel(n, d.kappa, cfg.dealias)
    nfull, rem = _steps(t1 - t0, cfg.dt)
    s = np.fft.rfft(np.stack((u, rho)))
    for dt in chain(repeat(cfg.dt, nfull), [rem] if rem else []):
        s = _step(s, dt, f)
    u, rho = np.fft.irfft(s, n)
    _bounded(u, rho)
    return u, rho


def _breakdown_clock(d: InitialData, t_last: float, cfg: OracleConfig) -> Flow:
    """The closed-form flow of d, from its one normalized analysis
    (`engine._flow`), with its breakdown time. Refuses a step above
    0.5/n on the datum's n-point grid, and targets within 0.05 of
    breakdown: close to breaking the spectral representation degrades
    and the integrator no longer serves as a trustworthy reference."""
    if cfg.dt > 0.5 / d.grid.n:
        raise ValueError("dt must not exceed 0.5/n")
    run = _flow(d)
    if t_last > run.t_star - SAFETY_MARGIN:
        raise ValueError(f"t = {t_last} is past the safety margin before breakdown at {run.t_star:.6g}")
    return run


def evolve(
    d: InitialData, t_end: float, cfg: OracleConfig = OracleConfig()
) -> tuple[GridFunction, GridFunction]:
    """March the system to t_end and return Eulerian (u, rho)."""
    _breakdown_clock(d, t_end, cfg)
    u, rho = _march(d, 0.0, t_end, d.u0.values, d.rho0.values, cfg)
    return d.grid.function(u), d.grid.function(rho)


def _casimir_of(u: GridFunction, rho: GridFunction, kappa: int) -> float:
    ux = derivative(u)
    return 0.25 * integrate(ux * ux + kappa * (rho * rho))


def compare(d: InitialData, times, cfg: OracleConfig = OracleConfig()) -> dict:
    """March once through the sorted times, comparing against the
    closed-form Eulerian solution at each stop, assembled from the
    datum's one analysis.

    Returns a JSON-ready report with per-time L2 and sup errors for
    both fields and the drift of the energy constant.
    """
    times = sorted(float(t) for t in times)
    run = _breakdown_clock(d, max(times, default=-math.inf), cfg)
    c0 = casimir(d)
    gr = d.grid
    u, rho = d.u0.values, d.rho0.values
    rows = []
    for t_prev, t in zip([0.0] + times, times):
        # the march goes on from the report's copies, so the fields are held once
        uo, ro = map(gr.function, _march(d, t_prev, t, u, rho, cfg))
        u, rho = uo.values, ro.values
        ue, re = eulerian_fields(run.state(t))
        eu, er = uo - ue, ro - re
        rows.append({"t": t, "l2_u": eu.l2_norm(), "l2_rho": er.l2_norm(),
                     "sup_u": eu.sup_norm(), "sup_rho": er.sup_norm(),
                     "casimir_drift": abs(_casimir_of(uo, ro, d.kappa) - c0)})
    return {
        "schema": 1,
        "n": gr.n,
        "dt": cfg.dt,
        "dealias": cfg.dealias,
        "kappa": d.kappa,
        "casimir": c0,
        "blowup_time": run.t_star,
        "rows": rows,
        "max_l2": max((max(r["l2_u"], r["l2_rho"]) for r in rows), default=0.0),
    }
