"""Unit pseudosphere sitting inside the indefinite product pairing.

Points are pairs (f1, f2) of periodic functions with
integral(f1^2 - f2^2) = 1. The chart map phi_iso identifies the region
f1 > |f2| with pairs (phi, alpha) of a circle diffeomorphism and a
periodic twist, and turns the flow of the system into great-hyperbola
geodesics: straight-line solutions of f_tt + c f = 0.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import InitialData
from .engine import _analysis, _scan_bisect, factor
from .errors import NotInU
from .grid import Grid, GridFunction, antiderivative_from_zero, derivative, integrate

SPHERE_TOL = 1e-9


def _parts(obj):
    if isinstance(obj, SpherePoint):
        return obj.f1, obj.f2
    a, b = obj
    return a, b


def pairing(x, y) -> float:
    """Indefinite product integral(x1 y1 - x2 y2).

    Arguments are SpherePoints or (GridFunction, GridFunction) pairs.
    """
    x1, x2 = _parts(x)
    y1, y2 = _parts(y)
    return integrate(x1 * y1 - x2 * y2)


@dataclass(frozen=True)
class SpherePoint:
    """Point on the unit level set of the pairing.

    Membership is validated relative to integral(f1^2 + f2^2): the
    defining integral cancels catastrophically at large hyperbolic
    radius, so an absolute test would reject valid far-out points.
    """

    f1: GridFunction
    f2: GridFunction

    def __post_init__(self):
        if self.f1.grid != self.f2.grid:
            raise ValueError("components live on different grids")
        r = integrate(self.f1 * self.f1 - self.f2 * self.f2)
        scale = max(1.0, integrate(self.f1 * self.f1 + self.f2 * self.f2))
        if abs(r - 1.0) > SPHERE_TOL * scale:
            raise ValueError(f"not on the unit level set: pairing = {r!r}")

    @property
    def grid(self) -> Grid:
        return self.f1.grid


@dataclass(frozen=True)
class GroupElement:
    """Chart coordinates: a circle map phi with phi(0) = 0,
    phi(x+1) = phi(x) + 1 and phi_x > 0, plus a periodic twist alpha.

    phi is stored by its node values with the linear part included, so
    phi itself is not periodic; phi - x is.
    """

    phi: GridFunction
    alpha: GridFunction

    def __post_init__(self):
        if self.phi.grid != self.alpha.grid:
            raise ValueError("components live on different grids")
        if abs(self.phi.values[0]) > 1e-9:
            raise ValueError("phi(0) must vanish")
        if self.phi_x.min() <= 0.0:
            raise ValueError("phi must be strictly increasing")

    @property
    def grid(self) -> Grid:
        return self.phi.grid

    @property
    def phi_x(self) -> GridFunction:
        periodic = self.phi - self.grid.function(self.grid.x)
        return derivative(periodic) + 1.0

    @classmethod
    def identity(cls, grid: Grid) -> "GroupElement":
        return cls(grid.function(grid.x.copy()), grid.zero())


def phi_iso(g: GroupElement) -> SpherePoint:
    """Chart map sqrt(phi_x) (cosh(alpha/2), sinh(alpha/2))."""
    root = np.sqrt(g.phi_x.values)
    half = 0.5 * g.alpha.values
    gr = g.grid
    return SpherePoint(
        gr.function(root * np.cosh(half)),
        gr.function(root * np.sinh(half)),
    )


def phi_iso_inverse(f: SpherePoint) -> GroupElement:
    """Inverse chart map, defined on the open region f1 > |f2|.

    The twist is recovered as log((f1+f2)/(f1-f2)), which equals
    2 artanh(f2/f1) but stays finite-precision-friendly near the
    region boundary. Raises NotInU when the point leaves the region.
    """
    a = f.f1.values
    b = f.f2.values
    if a.min() <= 0.0 or (a * a - b * b).min() <= 0.0:
        raise NotInU("point leaves the chart region f1 > |f2|")
    phi = antiderivative_from_zero(f.f1 * f.f1 - f.f2 * f.f2)
    alpha = f.grid.function(np.log((a + b) / (a - b)))
    return GroupElement(phi, alpha)


def tangent_map(g: GroupElement, u1: GridFunction, u2: GridFunction):
    """Differential of the chart map on a tangent (delta phi, delta alpha).

    Returns the image pair; it is automatically tangent to the level
    set at phi_iso(g).
    """
    px = g.phi_x.values
    half = 0.5 * g.alpha.values
    ch, sh = np.cosh(half), np.sinh(half)
    du = derivative(u1).values
    s = 0.5 / np.sqrt(px)
    a2 = px * u2.values
    gr = g.grid
    return (
        gr.function(s * (du * ch + a2 * sh)),
        gr.function(s * (du * sh + a2 * ch)),
    )


def lorentz(beta, f):
    """Pointwise hyperbolic rotation by rapidity beta; preserves the pairing.

    beta is a constant or a GridFunction (the rotation may vary with x:
    the pairing integrand is invariant node by node). f is a SpherePoint
    (returns one) or a component pair (returns a pair). On chart
    coordinates a constant beta acts by alpha -> alpha - 2 beta.
    """
    f1, f2 = _parts(f)
    b = beta.values if isinstance(beta, GridFunction) else float(beta)
    ch, sh = np.cosh(b), np.sinh(b)
    gr = f1.grid
    g1 = gr.function(f1.values * ch - f2.values * sh)
    g2 = gr.function(f2.values * ch - f1.values * sh)
    if isinstance(f, SpherePoint):
        return SpherePoint(g1, g2)
    return g1, g2


def gauge_parameter(g: GroupElement) -> float:
    """Hyperbolic angle moving g onto the zero-average-twist slice."""
    return 0.5 * integrate(g.alpha * g.phi_x)


def canonical_representative(g: GroupElement) -> tuple[GroupElement, float]:
    """Slice representative with integral(alpha phi_x) = 0 and the angle used.

    The returned element is phi_iso-conjugate to g by the hyperbolic
    rotation through the returned angle.
    """
    beta = gauge_parameter(g)
    return GroupElement(g.phi, g.alpha - 2.0 * beta), beta


def _branch_factors(d: InitialData, t: float):
    """Factors and their rates on the two branches, f1 +- f2 = w(u0x +- rho0).

    The oscillator is driven by the conserved quarter-energy c of the
    datum itself; no normalization is assumed.
    """
    if d.kappa != -1:
        raise ValueError("pseudosphere geodesics require kappa = -1")
    c, slopes = _analysis(d, "casimir")
    return [factor(z, c, t) for z in slopes]


def _geodesic_and_gap(d: InitialData, t: float) -> tuple[SpherePoint, GridFunction]:
    """The geodesic point and its gap at time t from one evaluation of
    the branch factors (`geodesic`, `geodesic_gap`)."""
    (wp, _), (wq, _) = _branch_factors(d, t)
    gr = d.grid
    f = SpherePoint(gr.function(0.5 * (wp + wq)), gr.function(0.5 * (wp - wq)))
    return f, gr.function(wp * wq)


def geodesic(d: InitialData, t: float) -> SpherePoint:
    """Geodesic from the chart image of the identity with initial
    velocity (u0x, rho0)/2.

    Solves f_tt + c f = 0 on the level set, c being the conserved
    quarter-energy of the datum; no normalization of the datum is
    assumed. Only kappa = -1 data ride the indefinite pairing.
    """
    return _geodesic_and_gap(d, t)[0]


def geodesic_gap(d: InitialData, t: float) -> GridFunction:
    """Pointwise f1^2 - f2^2 along the geodesic, the flow Jacobian.

    Taken as the product w_p w_q of the two branch factors, which stays
    accurate to rounding where the difference of squares of components
    growing like e^{st} cancels.
    """
    return _geodesic_and_gap(d, t)[1]


def geodesic_velocity(d: InitialData, t: float):
    """Time derivative of the geodesic, as a component pair."""
    (_, vp), (_, vq) = _branch_factors(d, t)
    gr = d.grid
    return gr.function(0.5 * (vp + vq)), gr.function(0.5 * (vp - vq))


def boundary_hit_time(d: InitialData, t_max: float = 20.0, step: float = 1e-3) -> float:
    """First time f1^2 - f2^2 vanishes somewhere along the geodesic.

    Located by scan and multisection on the two factor fields f1 +- f2,
    which solve g_tt + c g = 0 with g(0) = 1 and therefore have simple
    roots; this sees tangential exits (vanishing density at the
    breaking node) where min_x of the product only touches zero.
    Returns +inf if nothing vanishes before t_max. Slopes on the
    no-root threshold up to rounding count as on it, so data exactly on
    the global-existence boundary is not misreported.
    """
    if d.kappa != -1:
        raise ValueError("pseudosphere geodesics require kappa = -1")
    return _scan_bisect(*_analysis(d, "casimir"), t_max, step)
