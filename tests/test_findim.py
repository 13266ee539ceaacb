"""Finite-dimensional quadric quotient: metric, structure maps, curvature."""

import numpy as np
import pytest

from hsgeo.errors import DegeneratePlane
from hsgeo.findim import (
    FinPoint,
    FinTangent,
    boost_point,
    boost_tangent,
    fin_metric,
    fin_omega,
    holomorphic_sec,
    horizontal_basis,
    is_horizontal,
    j_action,
    plane_scan,
    quotient_sec,
    random_horizontal,
    random_point,
    split,
    standard_base,
    vertical_bracket_defect,
    vertical_field,
)

RNG = np.random.default_rng(7)
BASE2 = standard_base(2)


def test_point_must_sit_on_the_quadric():
    with pytest.raises(ValueError):
        FinPoint(np.array([1.0, 0.5]), np.array([0.0, 0.0]))
    assert standard_base(3).n == 3


def test_tangency_is_enforced():
    with pytest.raises(ValueError):
        FinTangent(np.array([1.0, 0.0, 0.0]), np.zeros(3), BASE2)


def test_random_points_satisfy_the_constraint():
    for n in (1, 2, 4):
        q = random_point(n, RNG)
        assert abs(q.x @ q.x - q.y @ q.y - 1.0) < 1e-12


def test_metric_signature():
    ex = FinTangent(np.array([0.0, 1.0, 0.0]), np.zeros(3), BASE2)
    ey = FinTangent(np.zeros(3), np.array([0.0, 1.0, 0.0]), BASE2)
    assert fin_metric(ex, ex) == 1.0
    assert fin_metric(ey, ey) == -1.0


def test_fiber_direction_is_unit_timelike():
    for n in (1, 2, 3):
        q = random_point(n, RNG)
        v = vertical_field(q)
        assert abs(fin_metric(v, v) + 1.0) < 1e-12


def test_split_of_the_fiber_direction():
    v = vertical_field(BASE2)
    vert, horiz = split(v)
    assert np.abs(vert.x - v.x).max() < 1e-15
    assert horiz.norm() < 1e-15
    assert is_horizontal(horiz)


def test_split_recomposes_and_projects():
    for _ in range(20):
        q = random_point(3, RNG)
        wx, wy = RNG.standard_normal(4), RNG.standard_normal(4)
        c = wx @ q.x - wy @ q.y
        t = FinTangent(wx - c * q.x, wy - c * q.y, q)
        vert, horiz = split(t)
        assert np.abs(vert.x + horiz.x - t.x).max() < 1e-12
        assert np.abs(vert.y + horiz.y - t.y).max() < 1e-12
        assert abs(fin_metric(horiz, vertical_field(q))) < 1e-12
        assert is_horizontal(horiz)


def test_j_squares_to_the_identity():
    for _ in range(20):
        q = random_point(2, RNG)
        a = random_horizontal(q, RNG)
        jja = j_action(j_action(a))
        assert np.abs(jja.x - a.x).max() < 1e-13
        assert np.abs(jja.y - a.y).max() < 1e-13


def test_j_skews_the_metric():
    for _ in range(20):
        q = random_point(2, RNG)
        a, b = random_horizontal(q, RNG), random_horizontal(q, RNG)
        ja = j_action(a)
        assert abs(fin_metric(ja, a)) < 1e-12
        assert abs(fin_metric(ja, j_action(b)) + fin_metric(a, b)) < 1e-12


def test_omega_matches_the_twisted_metric():
    for _ in range(20):
        q = random_point(2, RNG)
        a, b = random_horizontal(q, RNG), random_horizontal(q, RNG)
        assert abs(fin_omega(a, b) + fin_omega(b, a)) < 1e-12
        assert abs(fin_omega(a, b) - fin_metric(j_action(a), b)) < 1e-12


def test_boosts_are_isometries_commuting_with_j():
    for _ in range(15):
        q = random_point(2, RNG)
        a, b = random_horizontal(q, RNG), random_horizontal(q, RNG)
        beta = float(RNG.uniform(-2.0, 2.0))
        assert abs(boost_point(beta, q).x @ boost_point(beta, q).x
                   - boost_point(beta, q).y @ boost_point(beta, q).y - 1.0) < 1e-11
        la, lb = boost_tangent(beta, a), boost_tangent(beta, b)
        assert abs(fin_metric(la, lb) - fin_metric(a, b)) < 1e-12
        jl, lj = j_action(la), boost_tangent(beta, j_action(a))
        assert np.abs(jl.x - lj.x).max() < 1e-12
        assert np.abs(jl.y - lj.y).max() < 1e-12


def test_symplectic_planes_have_curvature_four():
    for n in (1, 2, 3):
        for _ in range(15):
            q = random_point(n, RNG)
            a = random_horizontal(q, RNG)
            if abs(fin_metric(a, a)) < 1e-2:
                continue
            assert abs(quotient_sec(a, j_action(a)) - 4.0) < 1e-10


def test_lowest_dimension_is_constantly_curved():
    for _ in range(30):
        q = random_point(1, RNG)
        a, b = random_horizontal(q, RNG), random_horizontal(q, RNG)
        try:
            sec = quotient_sec(a, b)
        except DegeneratePlane:
            continue
        assert abs(sec - 4.0) < 1e-10


def test_plane_scan_exposes_non_constant_curvature():
    rows = plane_scan(2)
    assert len(rows) == 6
    assert any(abs(sec - 4.0) > 0.1 for _, _, sec in rows)
    assert any(abs(sec - 4.0) < 1e-10 for _, _, sec in rows)
    rows1 = plane_scan(1)
    assert len(rows1) == 1
    assert abs(rows1[0][2] - 4.0) < 1e-12


def test_degenerate_planes_are_refused():
    ex = FinTangent(np.array([0.0, 1.0, 0.0]), np.zeros(3), BASE2)
    with pytest.raises(DegeneratePlane):
        quotient_sec(ex, ex)


def test_vertical_bracket_identity_by_finite_differences():
    worst = 0.0
    for n in (1, 2, 3):
        for _ in range(6):
            q = random_point(n, RNG)
            worst = max(
                worst,
                vertical_bracket_defect(random_horizontal(q, RNG), random_horizontal(q, RNG)),
            )
    assert worst < 1e-6


def test_horizontal_basis_spans_the_quotient():
    for n in (1, 2, 3):
        basis = horizontal_basis(standard_base(n))
        assert len(basis) == 2 * n
        for b in basis:
            assert is_horizontal(b)


def _batch(n, count, rng):
    points = [random_point(n, rng) for _ in range(count)]
    vectors = [random_horizontal(p, rng) for p in points]
    return (points, vectors, np.array([np.r_[p.x, p.y] for p in points]),
            np.array([np.r_[v.x, v.y] for v in vectors]))


def test_holomorphic_sec_equals_quotient_sec_per_sample():
    for n in (1, 3, 8):
        points, vectors, P, X = _batch(n, 12, np.random.default_rng(n))
        want = [quotient_sec(x, j_action(x)) for x in vectors if abs(fin_metric(x, x)) >= 1e-2]
        assert holomorphic_sec(P, X).tolist() == want


def test_holomorphic_sec_keeps_the_checks_of_the_public_types():
    points, vectors, P, X = _batch(2, 4, np.random.default_rng(4))
    with pytest.raises(ValueError, match="off the quadric"):
        holomorphic_sec(1.01 * P, X)
    with pytest.raises(ValueError, match="not tangent"):
        holomorphic_sec(P, X + P)
    # the vertical field is tangent, but J maps it to the point, which is
    # not: the same error as j_action raises on it
    vertical = np.array([np.r_[-p.y, -p.x] for p in points])
    with pytest.raises(ValueError, match="not tangent"):
        holomorphic_sec(P, vertical)
    # g(X, X) = 0.02 is not skipped, but at |X| = 1000 the area -g(X, X)^2
    # is below 1e-12 |X|^4: degenerate for quotient_sec as well
    p = np.r_[BASE2.x, BASE2.y][None]
    x = FinTangent(np.r_[0.0, 1e3, 0.0], np.r_[0.0, np.sqrt(1e6 - 0.02), 0.0], BASE2)
    with pytest.raises(DegeneratePlane):
        quotient_sec(x, j_action(x))
    with pytest.raises(DegeneratePlane):
        holomorphic_sec(p, np.r_[x.x, x.y][None])
    # a null vector is skipped, not refused
    assert holomorphic_sec(p, np.r_[0.0, 1.0, 0.0, 0.0, 1.0, 0.0][None]).size == 0
