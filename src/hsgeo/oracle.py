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
from .engine import blowup_time, eulerian_solution
from .errors import StepUnstable
from .grid import GridFunction, derivative, integrate

SAFETY_MARGIN = 0.05
SUP_LIMIT = 1e6


@dataclass(frozen=True)
class OracleConfig:
    """Integrator knobs of the classical RK4 march; the grid is the datum's."""

    dt: float = 1e-3
    dealias: bool = True

    def __post_init__(self):
        if self.dt <= 0.0:
            raise ValueError("dt must be positive")


def _kernel(n: int, kappa: int, dealias: bool):
    """The map (u, rho) -> (u_t, rho_t) on sample arrays of the n-point grid.

    With q = u_x^2 + kappa rho^2, the normalized A^{-1} d/dx q is -(P - P(0))
    for P the periodic antiderivative of q - mean(q) without its Nyquist
    mode, so u_t = P/2 - u u_x - P(0)/2. The 2/3 rule, when on, filters
    the three products. Four FFT calls: u, u_x, the three products in
    one stacked call, and u_t with rho_t in one stacked call.
    """
    k = np.fft.rfftfreq(n, d=1.0 / n)
    ik = 2j * np.pi * k
    ik[-1] = 0.0  # the Nyquist mode is annihilated to keep derivatives real
    mask = (k <= n / 3.0) if dealias else np.ones(k.size)
    half = np.zeros(k.size, dtype=complex)
    half[1:-1] = 0.5 * mask[1:-1] / ik[1:-1]
    flux = -ik * mask
    # the stacked inputs of the two batched FFT calls, refilled by every call
    prods = np.empty((3, n))
    spec = np.empty((2, k.size), dtype=complex)

    def f(u: np.ndarray, rho: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        ux = np.fft.irfft(ik * np.fft.rfft(u), n)
        np.add(ux * ux, kappa * (rho * rho), out=prods[0])
        np.multiply(u, ux, out=prods[1])
        np.multiply(u, rho, out=prods[2])
        q, adv, mass = np.fft.rfft(prods)
        ph = half * q
        # half P(0): the value at x = 0 of a spectrum with no mean or Nyquist mode
        p0 = 2.0 * ph.real.sum() / n
        np.subtract(ph, mask * adv, out=spec[0])
        np.multiply(flux, mass, out=spec[1])
        ut, rhot = np.fft.irfft(spec, n)
        return ut - p0, rhot

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
    ut, rhot = _kernel(gr.n, kappa, dealias)(u.values, rho.values)
    return gr.function(ut), gr.function(rhot)


def _step(u: np.ndarray, rho: np.ndarray, dt: float, f):
    k1u, k1r = f(u, rho)
    k2u, k2r = f(u + 0.5 * dt * k1u, rho + 0.5 * dt * k1r)
    k3u, k3r = f(u + 0.5 * dt * k2u, rho + 0.5 * dt * k2r)
    k4u, k4r = f(u + dt * k3u, rho + dt * k3r)
    return (u + (dt / 6.0) * (k1u + 2.0 * k2u + 2.0 * k3u + k4u),
            rho + (dt / 6.0) * (k1r + 2.0 * k2r + 2.0 * k3r + k4r))


def _march(d: InitialData, t0: float, t1: float, u, rho, cfg: OracleConfig):
    """RK4 steps of cfg.dt from t0, then a remainder step to t1. A field
    whose sup-norm exceeds 1e6 or is not finite raises StepUnstable."""
    f = _kernel(d.grid.n, d.kappa, cfg.dealias)
    span = t1 - t0
    nfull = int(math.floor(span / cfg.dt + 1e-12))
    rem = span - nfull * cfg.dt
    for dt in chain(repeat(cfg.dt, nfull), [rem] if rem > 1e-12 else []):
        u, rho = _step(u, rho, dt, f)
        if not (np.abs(u).max() <= SUP_LIMIT and np.abs(rho).max() <= SUP_LIMIT):
            raise StepUnstable("field sup-norm exceeded 1e6 or turned non-finite during the march")
    return u, rho


def _breakdown_clock(d: InitialData, t_last: float, cfg: OracleConfig) -> float:
    """Breakdown time of d. Refuses a step above 0.5/n on the datum's
    n-point grid, and targets within 0.05 of breakdown: close to
    breaking the spectral representation degrades and the integrator no
    longer serves as a trustworthy reference."""
    if cfg.dt > 0.5 / d.grid.n:
        raise ValueError("dt must not exceed 0.5/n")
    tstar = blowup_time(d)
    if t_last > tstar - SAFETY_MARGIN:
        raise ValueError(f"t = {t_last} is past the safety margin before breakdown at {tstar:.6g}")
    return tstar


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
    closed-form Eulerian solution at each stop.

    Returns a JSON-ready report with per-time L2 and sup errors for
    both fields and the drift of the energy constant.
    """
    times = sorted(float(t) for t in times)
    tstar = _breakdown_clock(d, max(times, default=-math.inf), cfg)
    c0 = casimir(d)
    gr = d.grid
    u, rho = d.u0.values, d.rho0.values
    rows = []
    for t_prev, t in zip([0.0] + times, times):
        u, rho = _march(d, t_prev, t, u, rho, cfg)
        uo, ro = gr.function(u), gr.function(rho)
        ue, re = eulerian_solution(d, t)
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
        "blowup_time": tstar,
        "rows": rows,
        "max_l2": max((max(r["l2_u"], r["l2_rho"]) for r in rows), default=0.0),
    }
