"""Finite-dimensional model of the quotient geometry.

The quadric S = {sum x_i^2 - sum y_i^2 = 1} in R^{2(n+1)} carries the
flat split-signature metric and a one-parameter isometry group of block
hyperbolic rotations whose orbits are the integral curves of the
timelike field V = J(x, y) = (-y, -x).  Splitting tangent vectors into
vertical and horizontal parts and applying O'Neill's formula to the
(flat) ambient curvature gives the quotient sectional curvature in
closed form; planes spanned by X and JX always have curvature 4, all
planes do when n = 1, and for n >= 2 the quotient curvature is not
constant.  This mirrors, in finitely many dimensions, how the quotient
of the solution manifold acquires curvature from a flat total space.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegeneratePlane

SURFACE_TOL = 1e-12
TANGENT_TOL = 1e-12
HORIZONTAL_TOL = 1e-9
DEGENERATE_TOL = 1e-12
NULL_TOL = 1e-2  # |g(X, X)| below which holomorphic_sec skips X as nearly null

# -- kernels -------------------------------------------------------------------
#
# Points and tangent vectors enter the kernels as arrays whose last axis
# holds the 2(n+1) ambient coordinates (x, y), with any number of sample
# axes in front; a batch of S samples is an (S, 2(n+1)) array. The public
# classes and functions below are wrappers over these kernels.


def _xy(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    m = a.shape[-1] // 2
    return a[..., :m], a[..., m:]


def _dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    # row by row through matmul, which takes each row through the same
    # dot product as a 1-D a @ b: batched and single values agree bit for bit
    return np.matmul(a[..., None, :], b[..., :, None])[..., 0, 0]


def _g(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    (ax, ay), (bx, by) = _xy(a), _xy(b)
    return _dot(ax, bx) - _dot(ay, by)


def _omega(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    (ax, ay), (bx, by) = _xy(a), _xy(b)
    return _dot(-ay, bx) + _dot(ax, by)


def _j(a: np.ndarray) -> np.ndarray:
    # (x, y) -> (-y, -x): J on vectors, the vertical field on points
    x, y = _xy(a)
    return np.concatenate([-y, -x], axis=-1)


def _norm(a: np.ndarray) -> np.ndarray:
    x, y = _xy(a)
    return np.abs(x).max(axis=-1, initial=0.0) + np.abs(y).max(axis=-1, initial=0.0)


def _split(t: np.ndarray, p: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    v = _j(p)
    c = _g(t, v)[..., None]
    return -c * v, t + c * v


def _horizontal_part(w: np.ndarray, p: np.ndarray) -> np.ndarray:
    # an ambient vector projected to the tangent space at p, then split
    return _split(w - _g(w, p) * p, p)[1]


def _check_surface(p: np.ndarray) -> None:
    x, y = _xy(p)
    xx, yy = _dot(x, x), _dot(y, y)
    r = xx - yy
    off = np.abs(r - 1.0) > SURFACE_TOL * np.maximum(1.0, xx + yy)
    if off.any():
        raise ValueError(f"point is off the quadric by {r[off].flat[0] - 1.0:.3e}")


def _check_tangent(t: np.ndarray, p: np.ndarray) -> None:
    pairing = _g(t, p)
    off = np.abs(pairing) > TANGENT_TOL * np.maximum(1.0, _norm(t))
    if off.any():
        raise ValueError(f"vector is not tangent (pairing {pairing[off].flat[0]:.3e})")


def _sec(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    gab = _g(a, b)
    den = _g(a, a) * _g(b, b) - gab * gab
    scale = np.maximum(_norm(a), 1.0) ** 2 * np.maximum(_norm(b), 1.0) ** 2
    flat = np.abs(den) < DEGENERATE_TOL * scale
    if flat.any():
        raise DegeneratePlane(f"plane area^2 = {den[flat].flat[0]:.3e}")
    om = _omega(a, b)
    return (den - 3.0 * om * om) / den


def _draw_point(n: int, rng: np.random.Generator) -> np.ndarray:
    while True:
        p = rng.standard_normal(2 * (n + 1))
        r = _g(p, p)
        if r > 0.1:
            return p / np.sqrt(r)


def _draw_horizontal(p: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    while True:
        h = _horizontal_part(rng.standard_normal(p.size), p)
        if _norm(h) > 0.1:
            return h


# -- public API -----------------------------------------------------------------


def _pair(x, y) -> tuple[np.ndarray, np.ndarray]:
    x = np.array(x, dtype=float)
    y = np.array(y, dtype=float)
    if x.ndim != 1 or x.shape != y.shape:
        raise ValueError("x and y must be vectors of equal length")
    if x.size < 2:
        raise ValueError("dimension parameter must be >= 1")
    for v in (x, y):
        if not np.all(np.isfinite(v)):
            raise ValueError("components must be finite")
        v.setflags(write=False)
    return x, y


def _vec(t) -> np.ndarray:
    return np.concatenate([t.x, t.y])


@dataclass(frozen=True)
class FinPoint:
    """Point of the quadric sum(x^2) - sum(y^2) = 1."""

    x: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        x, y = _pair(self.x, self.y)
        _check_surface(np.concatenate([x, y]))
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)

    @property
    def n(self) -> int:
        return self.x.size - 1


@dataclass(frozen=True)
class FinTangent:
    """Tangent vector to the quadric, stored with its base point."""

    x: np.ndarray
    y: np.ndarray
    base: FinPoint

    def __post_init__(self):
        x, y = _pair(self.x, self.y)
        if x.shape != self.base.x.shape:
            raise ValueError("tangent and base dimensions differ")
        _check_tangent(np.concatenate([x, y]), _vec(self.base))
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)

    @property
    def n(self) -> int:
        return self.x.size - 1

    def norm(self) -> float:
        return float(_norm(_vec(self)))


def _tangent(a: np.ndarray, base: FinPoint) -> FinTangent:
    x, y = _xy(a)
    return FinTangent(x, y, base)


def _same_base(t: FinTangent, s: FinTangent) -> None:
    if not (np.array_equal(t.base.x, s.base.x) and np.array_equal(t.base.y, s.base.y)):
        raise ValueError("tangent vectors live at different base points")


def fin_metric(t: FinTangent, s: FinTangent) -> float:
    """Split-signature inner product sum(x x') - sum(y y')."""
    _same_base(t, s)
    return float(_g(_vec(t), _vec(s)))


def vertical_field(p: FinPoint) -> FinTangent:
    """Generator of the hyperbolic rotation orbit through p; g(V, V) = -1."""
    return _tangent(_j(_vec(p)), p)


def split(t: FinTangent) -> tuple[FinTangent, FinTangent]:
    """Vertical and horizontal parts of a tangent vector.

    The vertical line is timelike, so the projection carries a sign:
    the vertical part is -g(T, V) V and the horizontal remainder is
    g-orthogonal to V.
    """
    vert, horiz = _split(_vec(t), _vec(t.base))
    return _tangent(vert, t.base), _tangent(horiz, t.base)


def is_horizontal(t: FinTangent) -> bool:
    a = _vec(t)
    return bool(abs(_g(a, _j(_vec(t.base)))) <= HORIZONTAL_TOL * max(1.0, _norm(a)))


def j_action(t: FinTangent) -> FinTangent:
    """Block swap-and-negate (x, y) -> (-y, -x).

    On the ambient space J is defined everywhere, but it maps tangent
    vectors to tangent vectors only on the horizontal subspace; for a
    non-horizontal input the tangency check of the result fires.
    """
    return _tangent(_j(_vec(t)), t.base)


def fin_omega(t: FinTangent, s: FinTangent) -> float:
    """Fundamental two-form g(JT, S); antisymmetric, g(JT, T) = 0."""
    _same_base(t, s)
    return float(_omega(_vec(t), _vec(s)))


def boost_point(beta: float, p: FinPoint) -> FinPoint:
    """Block hyperbolic rotation of a point; an isometry of the quadric."""
    ch, sh = np.cosh(beta), np.sinh(beta)
    return FinPoint(ch * p.x + sh * p.y, sh * p.x + ch * p.y)


def boost_tangent(beta: float, t: FinTangent) -> FinTangent:
    """Differential of the hyperbolic rotation; commutes with J."""
    ch, sh = np.cosh(beta), np.sinh(beta)
    return FinTangent(ch * t.x + sh * t.y, sh * t.x + ch * t.y, boost_point(beta, t.base))


def quotient_sec(x: FinTangent, y: FinTangent) -> float:
    """Sectional curvature of the quotient plane spanned by x and y.

    Both vectors must be horizontal.  O'Neill's formula applied to the
    flat ambient space gives
    (g(x,x) g(y,y) - g(x,y)^2 - 3 omega(x,y)^2) / (g(x,x) g(y,y) - g(x,y)^2);
    the denominator is the signed squared area of the plane and must be
    nondegenerate.
    """
    _same_base(x, y)
    if not (is_horizontal(x) and is_horizontal(y)):
        raise ValueError("both vectors must be horizontal")
    return float(_sec(_vec(x), _vec(y)))


def holomorphic_sec(points: np.ndarray, vectors: np.ndarray) -> np.ndarray:
    """Quotient curvature sec(X, JX) of a batch of samples.

    points and vectors are (S, 2(n+1)) arrays of (x, y) coordinates: S
    points of the quadric and a horizontal vector X at each. Samples
    with |g(X, X)| < NULL_TOL span nearly degenerate planes (the area
    is -g(X, X)^2) and are left out. The rest are checked as FinPoint,
    FinTangent, j_action and quotient_sec check them (same tolerances,
    same errors), and their curvatures are returned in order.
    """
    keep = np.abs(_g(vectors, vectors)) >= NULL_TOL
    points, vectors = points[keep], vectors[keep]
    jv = _j(vectors)
    _check_surface(points)
    _check_tangent(vectors, points)
    # g(JX, p) = -g(X, V) and g(JX, V) = -g(X, p): JX passes the (tighter)
    # tangency check only where X and JX are both horizontal
    _check_tangent(jv, points)
    return _sec(vectors, jv)


def standard_base(n: int) -> FinPoint:
    """The point (1, 0, ..., 0; 0, ..., 0)."""
    x = np.zeros(n + 1)
    x[0] = 1.0
    return FinPoint(x, np.zeros(n + 1))


def random_point(n: int, rng: np.random.Generator) -> FinPoint:
    """Random point of the quadric (rejection sampling on the sign of g)."""
    return FinPoint(*_xy(_draw_point(n, rng)))


def random_horizontal(p: FinPoint, rng: np.random.Generator) -> FinTangent:
    """Random horizontal tangent vector at p, O(1) in size."""
    return _tangent(_draw_horizontal(_vec(p), rng), p)


def _field_value(v0: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Horizontal extension of a constant ambient vector, evaluated at q.

    q need not lie on the quadric: projecting with the q-dependent
    normalization makes the field tangent to every level set of
    g(q, q), so finite differences of it compute an honest bracket of
    vector fields on the quadric.
    """
    gq = _g(q, q)
    w = v0 - (_g(v0, q) / gq) * q
    jq = _j(q)
    return w + (_g(w, jq) / gq) * jq


def vertical_bracket_defect(x: FinTangent, y: FinTangent, h: float = 1e-5) -> float:
    """Deviation from (1/2)[X, Y]^vert = g(Y, JX) V.

    X and Y are extended to horizontal fields near the base point and
    their Lie bracket [X, Y] = D_X Y - D_Y X is formed by central
    finite differences with step h; the reported number is the
    sup-norm gap between the two sides, small for any horizontal pair.
    The sign pins down the orientation conventions: linearizing the
    extension at the base gives D_a(bbar) = -g(b, a) base + g(b, Ja) V,
    so the bracket is 2 g(Ja, b) V, vertical already.
    """
    _same_base(x, y)
    p, x0, y0 = _vec(x.base), _vec(x), _vec(y)
    xv = _field_value(x0, p)
    yv = _field_value(y0, p)
    dy_along_x = (_field_value(y0, p + h * xv) - _field_value(y0, p - h * xv)) / (2 * h)
    dx_along_y = (_field_value(x0, p + h * yv) - _field_value(x0, p - h * yv)) / (2 * h)
    br = dy_along_x - dx_along_y
    v = _j(p)
    half_vert = -0.5 * _g(br, v) * v
    rhs = fin_metric(y, j_action(x)) * v
    return float(np.abs(half_vert - rhs).max())


def horizontal_basis(p: FinPoint) -> list[FinTangent]:
    """Orthogonal horizontal basis obtained from the ambient axes.

    Projects each coordinate direction and drops the two that collapse
    (the normal and the vertical); at the standard base point these are
    exactly the remaining coordinate directions.
    """
    hs = (_horizontal_part(w, _vec(p)) for w in np.eye(2 * (p.n + 1)))
    return [_tangent(h, p) for h in hs if _norm(h) > 1e-8]


def plane_scan(n: int) -> list[tuple[str, str, float]]:
    """Sectional curvature of every coordinate-pair plane at the standard base.

    Labels follow the ambient axes: x2..x(n+1) and y2..y(n+1).  The
    scan exhibits non-constant curvature for n >= 2 and the constant
    value 4 for n = 1.
    """
    p = standard_base(n)
    basis = horizontal_basis(p)
    labels = [f"x{k}" for k in range(2, n + 2)] + [f"y{k}" for k in range(2, n + 2)]
    rows = []
    for i in range(len(basis)):
        for j in range(i + 1, len(basis)):
            rows.append((labels[i], labels[j], quotient_sec(basis[i], basis[j])))
    return rows
