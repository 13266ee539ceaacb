"""Chart onto the unit level set, its inverse, boosts, geodesics."""

import math

import numpy as np
import pytest

from hsgeo.data import InitialData, casimir, normalize, preset
from hsgeo.engine import blowup_time, lagrangian_fields
from hsgeo.errors import NotInU
from hsgeo.grid import GridFunction, antiderivative_from_zero, derivative, integrate
from hsgeo.sphere import (
    GroupElement,
    SpherePoint,
    boundary_hit_time,
    canonical_representative,
    gauge_parameter,
    geodesic,
    geodesic_velocity,
    lorentz,
    pairing,
    phi_iso,
    phi_iso_inverse,
    tangent_map,
)
from conftest import GRID, rand_u1, rand_u2

RNG = np.random.default_rng(7)


def _rand_group(rng=RNG):
    s = rand_u2(GRID, rng, modes=6, const=False)
    w = np.exp(0.3 * s.values)
    w /= w.mean()
    phi = antiderivative_from_zero(GridFunction(GRID, w))
    return GroupElement(phi, rand_u2(GRID, rng, modes=6))


def test_pairing_unit_point():
    one = GRID.constant(1.0)
    zero = GRID.zero()
    assert pairing(SpherePoint(one, zero), SpherePoint(one, zero)) == 1.0


def test_pairing_timelike_direction():
    v = (GRID.zero(), GRID.constant(1.0))
    assert pairing(v, v) == -1.0


def test_sphere_point_membership_enforced():
    with pytest.raises(ValueError):
        SpherePoint(GRID.constant(2.0), GRID.zero())


def test_pairing_orthogonal_harmonics():
    f = SpherePoint(GRID.constant(1.0), GRID.zero())
    g = SpherePoint(GRID.constant(1.0), GRID.zero())
    u = tangent_map(GroupElement.identity(GRID), GRID.sample(lambda x: np.sin(2 * np.pi * x)), GRID.zero())
    v = tangent_map(GroupElement.identity(GRID), GRID.sample(lambda x: np.cos(2 * np.pi * x) - 1), GRID.zero())
    assert abs(pairing(f, g) - 1.0) < 1e-15
    assert abs(pairing(u, v)) < 1e-14


def test_geodesic_starts_at_the_pole():
    for name in ("fig1a", "fig1c", "stationary"):
        d = preset(name)
        f = geodesic(d, 0.0)
        assert (f.f1 - d.grid.constant(1.0)).sup_norm() < 1e-14
        assert f.f2.sup_norm() < 1e-14


def test_zero_data_is_a_fixed_point():
    x = GRID.x
    from hsgeo.data import InitialData

    d = InitialData(GRID.zero(), GRID.zero(), -1)
    for t in (0.5, 3.0):
        f = geodesic(d, t)
        assert (f.f1 - GRID.constant(1.0)).sup_norm() < 1e-14
        assert f.f2.sup_norm() < 1e-14


def test_geodesic_stays_on_the_level_set():
    d = preset("fig1c")
    for t in (0.0, 0.7, 3.0, 8.0):
        f = geodesic(d, t)
        assert abs(integrate(f.f1 * f.f1 - f.f2 * f.f2) - 1.0) < 1e-9


def test_geodesic_solves_the_oscillator_equation():
    h = 1e-4
    for name in ("fig1a", "lightlike", "spacelike", "fig1c"):
        d = preset(name)
        c = casimir(d)
        fp, f0, fm = geodesic(d, 1.0 + h), geodesic(d, 1.0), geodesic(d, 1.0 - h)
        acc1 = (fp.f1.values - 2 * f0.f1.values + fm.f1.values) / h**2
        acc2 = (fp.f2.values - 2 * f0.f2.values + fm.f2.values) / h**2
        assert np.abs(acc1 + c * f0.f1.values).max() < 1e-6
        assert np.abs(acc2 + c * f0.f2.values).max() < 1e-6


def test_geodesic_velocity_matches_central_differences():
    d = preset("fig1b")
    h = 1e-5
    v1, v2 = geodesic_velocity(d, 0.4)
    fp, fm = geodesic(d, 0.4 + h), geodesic(d, 0.4 - h)
    assert np.abs(v1.values - (fp.f1.values - fm.f1.values) / (2 * h)).max() < 1e-9
    assert np.abs(v2.values - (fp.f2.values - fm.f2.values) / (2 * h)).max() < 1e-9


def test_squared_chart_gap_is_the_flow_gradient():
    for name, t in (("fig1c", 2.0), ("fig1a", 0.4), ("lightlike", 0.7)):
        d = preset(name)
        f = geodesic(d, t)
        lf = lagrangian_fields(d, t)
        assert np.abs((f.f1 * f.f1 - f.f2 * f.f2).values - lf.phi_x.values).max() < 1e-12


def test_chart_of_the_identity():
    f = phi_iso(GroupElement.identity(GRID))
    assert (f.f1 - GRID.constant(1.0)).sup_norm() == 0.0
    assert f.f2.sup_norm() == 0.0


def test_chart_of_a_constant_offset():
    beta = 0.37
    g = GroupElement(GRID.function(GRID.x), GRID.constant(2 * beta))
    f = phi_iso(g)
    assert (f.f1 - GRID.constant(math.cosh(beta))).sup_norm() < 1e-14
    assert (f.f2 - GRID.constant(math.sinh(beta))).sup_norm() < 1e-14


def test_chart_round_trip():
    for _ in range(20):
        g = _rand_group()
        back = phi_iso_inverse(phi_iso(g))
        assert (back.phi - g.phi).sup_norm() < 1e-10
        assert (back.alpha - g.alpha).sup_norm() < 1e-10


def test_inverse_chart_of_the_pole():
    g = phi_iso_inverse(SpherePoint(GRID.constant(1.0), GRID.zero()))
    assert np.abs(g.phi.values - GRID.x).max() < 1e-14
    assert g.alpha.sup_norm() < 1e-14


def test_inverse_chart_of_constants():
    beta = -0.82
    f = SpherePoint(GRID.constant(math.cosh(beta)), GRID.constant(math.sinh(beta)))
    g = phi_iso_inverse(f)
    assert np.abs(g.phi.values - GRID.x).max() < 1e-13
    assert (g.alpha - GRID.constant(2 * beta)).sup_norm() < 1e-13


def test_geodesic_points_invert_to_the_flow():
    for name, t in (("fig1c", 3.0), ("fig1a", 0.5), ("fig1b", 0.7)):
        d = preset(name)
        g = phi_iso_inverse(geodesic(d, t))
        lf = lagrangian_fields(d, t)
        assert (g.phi - lf.phi).sup_norm() < 1e-10


def test_inverse_chart_rejects_boundary_crossings():
    with pytest.raises(NotInU):
        phi_iso_inverse(geodesic(preset("fig1a"), 0.8))


def test_chart_is_an_isometry():
    worst = 0.0
    for _ in range(25):
        g = _rand_group()
        u1 = rand_u1(GRID, RNG, modes=6)
        v1 = rand_u1(GRID, RNG, modes=6)
        u2, v2 = rand_u2(GRID, RNG, modes=6), rand_u2(GRID, RNG, modes=6)
        ref = 0.25 * integrate(derivative(u1) * derivative(v1) / g.phi_x - u2 * v2 * g.phi_x)
        tu, tv = tangent_map(g, u1, u2), tangent_map(g, v1, v2)
        worst = max(worst, abs(pairing(tu, tv) - ref))
    assert worst < 1e-10


def test_pushforwards_are_tangent():
    for _ in range(10):
        g = _rand_group()
        tu = tangent_map(g, rand_u1(GRID, RNG, modes=6), rand_u2(GRID, RNG, modes=6))
        assert abs(pairing(phi_iso(g), tu)) < 1e-10


def test_boost_with_zero_parameter_is_identity():
    f = phi_iso(_rand_group())
    lf = lorentz(GRID.zero(), f)
    assert (lf.f1 - f.f1).sup_norm() == 0.0
    assert (lf.f2 - f.f2).sup_norm() == 0.0


def test_boost_preserves_the_pairing():
    worst = 0.0
    for _ in range(15):
        f = phi_iso(_rand_group())
        beta = rand_u2(GRID, RNG, modes=4)
        lf = lorentz(beta, f)
        worst = max(worst, abs(pairing(lf, lf) - pairing(f, f)))
    assert worst < 1e-9


def test_constant_boost_shifts_the_offset_slot():
    worst = 0.0
    for _ in range(15):
        g = _rand_group()
        beta = float(RNG.normal(0, 0.8))
        lhs = lorentz(GRID.constant(beta), phi_iso(g))
        rhs = phi_iso(GroupElement(g.phi, g.alpha - 2 * beta))
        worst = max(
            worst,
            (lhs.f1 - rhs.f1).sup_norm() + (lhs.f2 - rhs.f2).sup_norm(),
        )
    assert worst < 1e-9


def test_canonical_representative_zeroes_the_gauge():
    for _ in range(5):
        g = _rand_group()
        can, beta = canonical_representative(g)
        assert abs(gauge_parameter(can)) < 1e-12
        assert abs(gauge_parameter(g) - beta) < 1e-12


def test_boundary_hit_matches_the_breakdown_clock():
    for name in ("fig1a", "fig1b", "lightlike"):
        d = preset(name)
        assert abs(boundary_hit_time(d, t_max=3.0) - blowup_time(d)) < 1e-8
    # unnormalised: the hit runs on the physical clock of the datum itself
    d = preset("fig1a")
    raw = InitialData(d.u0 * 2.0, d.rho0 * 2.0, -1)
    norm, cls = normalize(raw)
    assert abs(boundary_hit_time(raw, t_max=3.0) - cls.scale * blowup_time(norm)) < 1e-8
    assert boundary_hit_time(preset("fig1c"), t_max=3.0) == math.inf
    assert boundary_hit_time(preset("stationary"), t_max=3.0) == math.inf
