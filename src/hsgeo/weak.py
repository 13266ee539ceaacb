"""Global weak flow for the timelike class and its conservative solutions.

On the admissible set (unit negative energy constant, slopes bounded
below by the breakdown threshold) the flow map degenerates at isolated
points but never folds, and the closed-form flow state of the engine
(`engine._assembly`, the one the classical flow uses), taken at the
datum's own Casimir, continues it past every classical breakdown.
Pushing the Lagrangian velocity through the flow map then yields
density-velocity pairs that solve the system weakly for all time while
conserving the indefinite energy. A datum's flow, weak or classical, is
analysed once (`flow`) and then assembled at any number of times.
"""

import math
from dataclasses import dataclass, field
from typing import Callable, ClassVar

import numpy as np

from .data import CLASS_TOL, InitialData, casimir
from .engine import (
    LagrangianFields,
    _analysis,
    _breaking,
    _classical,
    eulerian_fields,
)
from .errors import NotAdmissible
from .geometry import TangentPair, christoffel
from .grid import (
    GridFunction,
    antiderivative_from_zero,
    derivative,
    integrate,
)
from .sphere import GroupElement

DEGENERATE_NODE_TOL = 1e-14


@dataclass(frozen=True)
class AdmissibilityReport:
    """Node-wise admissibility diagnosis for the global weak flow."""

    c_value: float
    condition_A: bool
    condition_B: bool
    violating_nodes: list

    @property
    def admissible(self) -> bool:
        return self.condition_A and self.condition_B


def admissibility(d: InitialData) -> AdmissibilityReport:
    """Check the two hypotheses of the global flow.

    (A) the energy constant equals -1; (B) |rho0| <= u0x + 2 sqrt(-c)
    node-wise, i.e. no branch slope below the breakdown threshold of the
    datum's own Casimir c (of -1 where (A) fails), where slopes on the
    threshold up to rounding count as on it.
    """
    cas = casimir(d)
    c, (p0, q0) = _analysis(d, -1)
    bad = _breaking(p0, c) | _breaking(q0, c)
    del p0, q0  # the node list, up to n Python ints, is built without them
    bad = np.nonzero(bad)[0]
    return AdmissibilityReport(cas, abs(cas + 1.0) <= CLASS_TOL, bad.size == 0, bad.tolist())


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


@dataclass(frozen=True)
class Flow:
    """The flow of one datum, analysed once (`flow`): the global weak flow
    of admissible data, the classical closed form otherwise, refused at
    or past its breakdown time t_star (+inf for the weak flow).

    The class, the clock, the branch slopes and, for c < 0, the
    projected half-slope product are fixed when the flow is built, from
    the datum's one normalized analysis (`engine._classical`), so a run
    of T output times costs one O(n) analysis plus T assemblies
    (`engine._assembly`).
    """

    datum: InitialData
    admissible: bool
    t_star: float
    assemble: Callable = field(repr=False)

    def state(self, t: float) -> LagrangianFields:
        """Flow state at time t: a WeakState on the weak flow, whose chart
        components are f1 +- f2 = w_p, w_q, the two branch factors, and
        whose alpha_t = rho0 / phi_x exactly (the Wronskian of the two
        factor branches is constant in time and equals rho0)."""
        return self._state(t)[0]

    def _state(self, t: float):
        """Flow state at time t (`state`) and the branch-factor rates
        w_p', w_q'."""
        s, (wp, vp), (wq, vq) = self.assemble(t)
        if self.admissible:
            gr = self.datum.grid
            s = WeakState(
                **vars(s), f1=gr.function(0.5 * (wp + wq)), f2=gr.function(0.5 * (wp - wq)),
                alpha=gr.function(np.log(wp) - np.log(wq)),
            )
        return s, vp, vq


def flow(d: InitialData, weak: bool = False) -> Flow:
    """The flow of d, from its one normalized analysis
    (`engine._classical`): the global weak flow, stable for arbitrarily
    large t, where the clock reads +inf at the class -1 (read at the
    datum's own Casimir), which on normalized data is the verdict of
    `admissibility`; the classical closed form otherwise, refused at its
    clock (ValueError for data that is not normalized). With weak=True,
    data that fails `admissibility` raises NotAdmissible instead; data
    off the class -1 is refused on its Casimir, before the normalized
    analysis could raise ValueError.
    """
    if not weak or abs(casimir(d) + 1.0) <= CLASS_TOL:
        c, t_star, assemble = _classical(d)
        admissible = math.isinf(t_star) and abs(c + 1.0) <= CLASS_TOL
        if admissible or not weak:
            return Flow(d, admissible, t_star, assemble)
    rep = admissibility(d)
    raise NotAdmissible(
        f"data is not admissible for the global weak flow: "
        f"c = {rep.c_value:.6g}, {len(rep.violating_nodes)} node(s) violate the slope bound"
    )


def weak_state(d: InitialData, t: float) -> WeakState:
    """Closed-form global flow state at time t >= 0 (`flow`);
    NotAdmissible for data that fails `admissibility`."""
    return flow(d, weak=True).state(t)


def flow_state(d: InitialData, t: float) -> LagrangianFields:
    """Flow state at time t: the global weak flow for admissible data,
    the classical closed form otherwise (refused at or past breakdown);
    one time of `flow(d)`."""
    return flow(d).state(t)


def energy(s: LagrangianFields) -> float:
    """Conserved energy int (phi_tx^2 + kappa rho0^2) / phi_x of a flow state.

    Quadrature skips degenerate nodes (phi_x below 1e-14): the
    integrand extends by zero across the degeneracy set. Equals 4c for
    normalized data of class c; -4 for every admissible datum at every
    time.
    """
    px = s.phi_x.values
    keep = px > DEGENERATE_NODE_TOL
    vals = s.phi_tx.values[keep] ** 2 / px[keep] + s.kappa * s.rho.values[keep] ** 2 * px[keep]
    return float(vals.sum() / px.size)


def geodesic_residual(d: InitialData, t: float) -> float:
    """Sup-norm defect of the geodesic equation at time t.

    Compares the closed-form second time derivatives of (phi, alpha)
    with the Christoffel quadratic form evaluated at the current flow
    state. Zero up to quadrature error for admissible data.
    """
    s, vp, vq = flow(d, weak=True)._state(t)
    # phi_x = w_p w_q with w'' = -c w at the datum's own Casimir c, the class of its weak flow
    phi_ttx = 2.0 * (vp * vq - casimir(d) * s.phi_x.values)
    phi_tt = antiderivative_from_zero(d.grid.function(phi_ttx))
    alpha_tt = -d.rho0 * s.phi_tx / (s.phi_x * s.phi_x)

    base = GroupElement(s.phi, s.alpha)
    vel = TangentPair(s.phi_t, s.alpha_t, base=base)
    gam = christoffel(vel, vel, at=base)
    return max((gam.u1 - phi_tt).sup_norm(), (gam.u2 - alpha_tt).sup_norm())


def weak_solution(d: InitialData, t: float) -> tuple[GridFunction, GridFunction]:
    """Eulerian fields (u, rho) of the global conservative weak solution.

    The Lagrangian rates (phi_t, alpha_t) are the solution values along
    the flow map, so everything reduces to inverting the nondecreasing
    phi; degenerate plateaus collapse to single Eulerian points.
    """
    return eulerian_fields(weak_state(d, t))


def weak_residual(d: InitialData, t: float, dt: float = 1e-4) -> float:
    """L2 residual of the integrated evolution equation for u.

    u_t is formed by central differences of the Eulerian field across
    t +- dt; the right-hand side is the antisymmetrized double
    integral of u_x^2 - rho^2. Small for admissible data at any time,
    including past the classical breakdown of neighboring data.
    """
    if t - dt < 0.0:
        raise ValueError("t - dt must be nonnegative")
    gr = d.grid
    run = flow(d, weak=True)
    up, _ = eulerian_fields(run.state(t + dt))
    um, _ = eulerian_fields(run.state(t - dt))
    u, rho = eulerian_fields(run.state(t))
    u_t = (up - um) * (0.5 / dt)
    ux = derivative(u)
    g = ux * ux - rho * rho
    rhs = 0.5 * (antiderivative_from_zero(g) - gr.function(gr.x) * integrate(g))
    return (u_t + u * ux - rhs).l2_norm()


def lagrangian_snapshot(d: InitialData, t: float) -> GridFunction:
    """Velocity gradient along the flow map, u_x(t, phi(t, x)).

    Admissible data uses the global weak flow; anything else falls back
    to the classical closed form and is refused past its breakdown
    time.
    """
    return flow_state(d, t).ux
