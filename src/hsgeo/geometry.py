"""Right-invariant geometry on the circle-map-and-twist configuration space.

Tangent vectors are pairs (u1, u2): a velocity field with u1(0) = 0 and
a periodic density component. The indefinite metric

    G_kappa(U, V) = 1/4 int (U1' V1' + kappa U2 V2) dx

is extended right-invariantly to an arbitrary base point (phi, alpha),
where it reads 1/4 int (U1' V1' / phi_x + kappa U2 V2 phi_x) dx. The
quotient by constant twists carries the related split-signature metric
G_K (kappa = -1 with the sign of the density block flipped), an almost
para-complex structure J and a symplectic form omega; together these
make the quotient a para-Kaehler manifold of constant para-holomorphic
sectional curvature.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DegeneratePlane
from .grid import (
    GridFunction,
    _a_inverse,
    _antiderivative,
    _demean,
    _derivative,
    antiderivative_from_zero,
    derivative,
    integrate,
)
from .sphere import GroupElement

DEGENERATE_TOL = 1e-12


@dataclass(frozen=True)
class TangentPair:
    """Tangent vector (u1, u2), optionally attached to a base point.

    base = None means the identity. u1 is anchored by u1(0) = 0, the
    gauge that makes the chart map to the pseudosphere injective.
    """

    u1: GridFunction
    u2: GridFunction
    base: GroupElement | None = None

    def __post_init__(self):
        if self.u1.grid != self.u2.grid:
            raise ValueError("components live on different grids")
        if self.base is not None and self.base.grid != self.u1.grid:
            raise ValueError("base point lives on a different grid")
        if abs(self.u1.values[0]) > 1e-9:
            raise ValueError("u1(0) must vanish")

    @property
    def grid(self):
        return self.u1.grid


@dataclass(frozen=True)
class KTangent:
    """Tangent vector to the quotient by constant twists.

    The density slot is a class modulo constants, stored as its
    mean-zero representative.
    """

    u1: GridFunction
    u2_class: GridFunction

    def __post_init__(self):
        if self.u1.grid != self.u2_class.grid:
            raise ValueError("components live on different grids")
        if abs(self.u1.values[0]) > 1e-9:
            raise ValueError("u1(0) must vanish")
        if abs(integrate(self.u2_class)) > 1e-10:
            raise ValueError("u2_class must have zero mean")

    def as_pair(self) -> TangentPair:
        return TangentPair(self.u1, self.u2_class)

    @property
    def grid(self):
        return self.u1.grid


def _same_base(a: GroupElement | None, b: GroupElement | None) -> bool:
    if a is b:
        return True
    if a is None or b is None:
        return False
    return (
        a.grid == b.grid
        and np.array_equal(a.phi.values, b.phi.values)
        and np.array_equal(a.alpha.values, b.alpha.values)
    )


def _check_pair(U: TangentPair, V: TangentPair) -> None:
    if U.grid != V.grid:
        raise ValueError("tangent vectors live on different grids")
    if not _same_base(U.base, V.base):
        raise ValueError("tangent vectors sit at different base points")


def _check_identity(*pairs: TangentPair) -> None:
    for p in pairs:
        if p.base is not None:
            raise ValueError("operation is defined at the identity")


def _check_kappa(kappa: int) -> None:
    if kappa not in (-1, 1):
        raise ValueError("kappa must be +1 or -1")


# -- kernels ------------------------------------------------------------------
#
# Tangent pairs enter the kernels as pair arrays of shape (..., 2, n): the
# samples of u1 and u2 stacked along the slot axis, any number of leading
# sample axes in front, the grid along the last axis. Every kernel returns
# one value (or one pair array) per sample. The public functions below are
# wrappers that validate their TangentPair arguments and call these.


def _pairs(*tangents: TangentPair) -> list[np.ndarray]:
    return [np.stack([t.u1.values, t.u2.values]) for t in tangents]


def _tangent(p: np.ndarray, grid, base: GroupElement | None = None) -> TangentPair:
    return TangentPair(grid.function(p[0]), grid.function(p[1]), base=base)


def _recenter(u2: np.ndarray, px: np.ndarray) -> np.ndarray:
    # the class representative of u2 with zero mean in the measure phi_x dx
    return u2 - (u2 * px).mean(axis=-1, keepdims=True)


def _metric(U: np.ndarray, V: np.ndarray, kappa: int, px: np.ndarray | None = None) -> np.ndarray:
    du, dv = _derivative(U[..., 0, :]), _derivative(V[..., 0, :])
    if px is None:
        return 0.25 * (du * dv + kappa * (U[..., 1, :] * V[..., 1, :])).mean(axis=-1)
    return 0.25 * (du * dv / px + kappa * (U[..., 1, :] * V[..., 1, :] * px)).mean(axis=-1)


def _metric_K(U: np.ndarray, V: np.ndarray, px: np.ndarray | None = None) -> np.ndarray:
    if px is None:
        return _metric(U, V, -1)
    U, V = U.copy(), V.copy()
    U[..., 1, :] = _recenter(U[..., 1, :], px)
    V[..., 1, :] = _recenter(V[..., 1, :], px)
    return _metric(U, V, -1, px)


def _bracket(U: np.ndarray, V: np.ndarray) -> np.ndarray:
    # both slots read (v_x) u1 - (u_x) v1: the velocity slots compose as
    # vector fields, the density slots are advected
    return _derivative(V) * U[..., :1, :] - _derivative(U) * V[..., :1, :]


def _b_operator(U: np.ndarray, V: np.ndarray, kappa: int) -> np.ndarray:
    u1, u2, v1 = U[..., 0, :], U[..., 1, :], V[..., 0, :]
    u1xx = _derivative(_derivative(u1))
    dv = _derivative(V)
    h1 = u1xx * dv[..., 0, :] + _derivative(u1xx * v1) - kappa * (u2 * dv[..., 1, :])
    return np.stack([_a_inverse(_demean(h1)), -_derivative(u2 * v1)], axis=-2)


def _arnold(U: np.ndarray, V: np.ndarray, kappa: int) -> np.ndarray:
    W = _bracket(U, V)
    delta = 0.5 * (_b_operator(U, V, kappa) + _b_operator(V, U, kappa))
    beta = 0.5 * (_metric(U, _bracket(V, W), kappa) - _metric(V, _bracket(U, W), kappa))
    return (_metric(delta, delta, kappa) + beta - 0.75 * _metric(W, W, kappa)
            - _metric(_b_operator(U, U, kappa), _b_operator(V, V, kappa), kappa))


def _j_tensor(U: np.ndarray, px: np.ndarray | None = None) -> np.ndarray:
    if px is None:
        integrand = _demean(U[..., 1, :])
        second = _demean(-_derivative(U[..., 0, :]))
    else:
        integrand = _recenter(U[..., 1, :], px) * px
        second = _demean(-_derivative(U[..., 0, :]) / px)
    return np.stack([-_antiderivative(integrand), second], axis=-2)


def _omega(U: np.ndarray, V: np.ndarray) -> np.ndarray:
    return 0.25 * (_derivative(U[..., 1, :]) * V[..., 0, :]
                   - _derivative(V[..., 1, :]) * U[..., 0, :]).mean(axis=-1)


def _nijenhuis(U: np.ndarray, V: np.ndarray) -> np.ndarray:
    ju, jv = _j_tensor(U), _j_tensor(V)
    out = (_bracket(U, V) + _bracket(ju, jv)
           - _j_tensor(_bracket(ju, V)) - _j_tensor(_bracket(U, jv)))
    out[..., 1, :] = _demean(out[..., 1, :])
    return out


# -- public API ---------------------------------------------------------------


def metric_G(U: TangentPair, V: TangentPair, kappa: int = -1) -> float:
    """Right-invariant metric, signature depending on kappa."""
    _check_pair(U, V)
    _check_kappa(kappa)
    px = None if U.base is None else U.base.phi_x.values
    return float(_metric(*_pairs(U, V), kappa, px))


def bracket(u: TangentPair, v: TangentPair) -> TangentPair:
    """Lie bracket on the algebra (identity base).

    Commutator of the right-invariant extensions: the velocity slots
    compose by the vector-field bracket, the density slots are advected.
    """
    _check_pair(u, v)
    _check_identity(u, v)
    return _tangent(_bracket(*_pairs(u, v)), u.grid)


def b_operator(u: TangentPair, v: TangentPair, kappa: int = -1) -> TangentPair:
    """Metric adjoint of the bracket: G(B(u, v), w) = G(u, [v, w]).

    The first slot needs the inverse of -d2/dx2, which on the circle
    only exists for zero-mean input, so the source is projected. The
    discarded constant changes G(B(u, v), w) by
    -1/4 mean(source) int w1 dx; the adjoint identity is exact whenever
    int w1 dx = 0 and curvature code that needs the pairing against a
    general w evaluates the right-hand side instead.
    """
    _check_pair(u, v)
    _check_identity(u, v)
    _check_kappa(kappa)
    return _tangent(_b_operator(*_pairs(u, v), kappa), u.grid)


def arnold_curvature(u: TangentPair, v: TangentPair, kappa: int = -1) -> float:
    """Unnormalized sectional curvature G(R(u, v)v, u) at the identity.

    Structure-constant formula for a right-invariant metric,

        K = G(d, d) + G([u, v], b) - 3/4 G([u, v], [u, v])
            - G(B(u, u), B(v, v)),

    with d and b the symmetric and antisymmetric parts of B(u, v).
    The pairing G([u, v], b) is expanded through the adjoint identity,
    1/2 (G(u, [v, w]) - G(v, [u, w])) with w = [u, v], because the
    projected first slot of B misrepresents exactly this term (the
    bracket's velocity slot has nonzero mean in general, see
    b_operator). The symmetric terms are safe: their projected sources
    pair against mean-zero velocity slots.
    """
    _check_pair(u, v)
    _check_identity(u, v)
    _check_kappa(kappa)
    return float(_arnold(*_pairs(u, v), kappa))


def christoffel(
    U: TangentPair, V: TangentPair, at: GroupElement | None = None
) -> TangentPair:
    """Geodesic quadratic form of the kappa = -1 metric.

    A geodesic through `at` with velocity U satisfies
    (phi_tt, alpha_tt) = christoffel((phi_t, alpha_t), same, at).
    Symmetric in U, V. The first slot vanishes at x = 0, matching the
    anchoring of phi.
    """
    if U.base is not None and not _same_base(U.base, at):
        raise ValueError("U is not tangent at the requested base point")
    if V.base is not None and not _same_base(V.base, at):
        raise ValueError("V is not tangent at the requested base point")
    _check_pair(U, V)
    gr = U.grid
    du = derivative(U.u1)
    dv = derivative(V.u1)
    if at is None:
        px = gr.constant(1.0)
        phi = gr.function(gr.x)
    else:
        px = at.phi_x
        phi = at.phi
    h = du * dv / px - U.u2 * V.u2 * px
    F = antiderivative_from_zero(h)
    first = 0.5 * (F - phi * integrate(h))
    second = -0.5 * (du * V.u2 + dv * U.u2) / px
    return TangentPair(first, second, base=at)


def metric_K(u: KTangent, v: KTangent, at: GroupElement | None = None) -> float:
    """Quotient metric: the kappa = -1 pairing with the density sign flipped.

    At a general base the class representatives are re-centered in the
    measure phi_x dx before pairing.
    """
    if u.grid != v.grid:
        raise ValueError("tangent vectors live on different grids")
    U, V = (np.stack([t.u1.values, t.u2_class.values]) for t in (u, v))
    return float(_metric_K(U, V, None if at is None else at.phi_x.values))


def j_tensor(U: TangentPair) -> TangentPair:
    """Almost para-complex structure of the quotient, J^2 = identity.

    Swaps the roles of the two slots: the new velocity integrates the
    re-centered density, the new density is the negative velocity
    gradient. Acts on classes, so the density slot of the result is
    returned mean-zero.
    """
    px = None if U.base is None else U.base.phi_x.values
    return _tangent(_j_tensor(*_pairs(U), px), U.grid, U.base)


def omega_form(U: TangentPair, V: TangentPair) -> float:
    """Symplectic form of the para-Kaehler structure, omega = G_K(J., .).

    The integrand does not involve the base point at all, which is the
    coordinate expression of omega being parallel.
    """
    _check_pair(U, V)
    return float(_omega(*_pairs(U, V)))


def k_curvature(u: KTangent, v: KTangent) -> float:
    """Sectional curvature of the quotient metric for span(u, v).

    Constant and equal to 1 on nondegenerate J-invariant planes; the
    general value is 1 + 3 omega(u, v)^2 / (G(u, u) G(v, v) - G(u, v)^2)
    with the opposite sign convention absorbed in the quotient formula
    (N - 3 omega^2) / N. Degenerate planes have no sectional curvature.
    """
    guu = metric_K(u, u)
    gvv = metric_K(v, v)
    guv = metric_K(u, v)
    den = guu * gvv - guv * guv
    if abs(den) < DEGENERATE_TOL:
        raise DegeneratePlane("plane is degenerate for the quotient metric")
    w = omega_form(u.as_pair(), v.as_pair())
    return (den - 3.0 * w * w) / den


def nijenhuis(u: TangentPair, v: TangentPair) -> TangentPair:
    """Integrability tensor of J at the identity,

        N(u, v) = [u, v] + [Ju, Jv] - J[Ju, v] - J[u, Jv].

    Vanishes identically: J comes from an integrable para-complex
    structure. The density slot is reduced to its mean-zero
    representative, as everywhere on the quotient.
    """
    _check_pair(u, v)
    _check_identity(u, v)
    return _tangent(_nijenhuis(*_pairs(u, v)), u.grid)


def identity_defects(U: np.ndarray, V: np.ndarray, kappa: int = -1) -> dict[str, np.ndarray]:
    """Per-sample defects of the identities that `hs curvature` checks.

    U and V are (S, 2, n) pair arrays of tangent pairs at the identity
    (u1(0) = 0). The defects are: constant_curvature, the gap between
    the Arnold curvature and the metric area of span(u, v), relative to
    max(1, area); and for kappa = -1, on the quotient classes of u and v,
    j_squared (sup |J^2 u - u|), omega_compat (|omega(u, v) - G_K(Ju, v)|),
    anti_isometry (|G_K(Ju, Jv) + G_K(u, v)|) and nijenhuis (sup |N(u, v)|).
    """
    _check_kappa(kappa)
    area = _metric(U, U, kappa) * _metric(V, V, kappa) - _metric(U, V, kappa) ** 2
    out = {"constant_curvature":
           np.abs(_arnold(U, V, kappa) - area) / np.maximum(1.0, np.abs(area))}
    if kappa != -1:
        return out
    U, V = U.copy(), V.copy()
    U[..., 1, :] = _demean(U[..., 1, :])
    V[..., 1, :] = _demean(V[..., 1, :])
    nij = np.abs(_nijenhuis(U, V)).max(axis=(-2, -1))  # first: Ju and Jv not yet held
    ju, jv = _j_tensor(U), _j_tensor(V)
    out["j_squared"] = np.abs(_j_tensor(ju) - U).max(axis=(-2, -1))
    out["omega_compat"] = np.abs(_omega(U, V) - _metric_K(ju, V))
    out["anti_isometry"] = np.abs(_metric_K(ju, jv) + _metric_K(U, V))
    out["nijenhuis"] = nij
    return out
