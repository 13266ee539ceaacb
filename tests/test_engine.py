"""Characteristic solver: scalar flows, breakdown detection, field evaluation."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.optimize import brentq

from hsgeo import data, engine, sphere, weak
from hsgeo.data import InitialData, normalize, preset
from hsgeo.engine import (
    blowup_time,
    blowup_time_bisect,
    compose_with_inverse,
    eulerian_solution,
    factor,
    factor_root_times,
    is_global,
    lagrangian_fields,
    riccati,
    singular_time_literal,
)
from hsgeo.errors import BlowupReached, NotInvertible
from hsgeo.grid import Grid, GridFunction, antiderivative_from_zero, derivative
from hsgeo.sphere import boundary_hit_time
from hsgeo.weak import admissibility, flow_state
from conftest import GRID, mean_zero_trig

finite_z = st.floats(-6.0, 6.0, allow_nan=False)
small_t = st.floats(0.0, 0.4, allow_nan=False)


def test_riccati_zero_is_lightlike_equilibrium():
    assert riccati(np.array([0.0]), 0, 3.0)[0] == 0.0


def test_riccati_fixed_point_of_the_unit_timelike_flow():
    for t in (0.0, 0.5, 2.0, 10.0):
        assert abs(riccati(np.array([2.0]), -1, t)[0] - 2.0) < 1e-12


def test_riccati_spacelike_quarter_period():
    assert abs(riccati(np.array([0.0]), 1, math.pi / 4)[0] - (-2.0)) < 1e-12


@given(finite_z, st.sampled_from([1, 0, -1]), small_t)
def test_riccati_satisfies_its_own_ode(z0, c, t):
    h = 1e-6
    z = riccati(np.array([z0]), c, t)[0]
    if not math.isfinite(z) or abs(z) > 50:
        return
    zp = riccati(np.array([z0]), c, t + h)[0]
    zm = riccati(np.array([z0]), c, t - h)[0] if t >= h else z0
    dz = (zp - zm) / (2 * h) if t >= h else (zp - z) / h
    assert abs(dz - (-0.5 * z * z - 2 * c)) < 1e-4 * max(1.0, z * z)


@given(finite_z, st.sampled_from([0.0, 1.5]), st.sampled_from([1, 0, -1, 0.3, -2.5]), small_t)
def test_factor_solves_the_linear_form(z0, im, c, t):
    # unnormalised c and complex slopes (kappa = +1) use the same oscillator
    h = 1e-5
    z0 = complex(z0, im) if im else z0
    arr = np.array([z0])
    w, wt = factor(arr, c, t)
    wp, _ = factor(arr, c, t + h)
    wm, _ = factor(arr, c, t - h) if t >= h else (None, None)
    w0, wt0 = factor(arr, c, 0.0)
    assert abs(w0[0] - 1.0) < 1e-14
    assert abs(wt0[0] - z0 / 2) < 1e-14
    if wm is not None:
        fd2 = (wp[0] - 2 * w[0] + wm[0]) / h**2
        assert abs(fd2 + c * w[0]) < 1e-4 * max(1.0, abs(w[0]))
        fd1 = (wp[0] - wm[0]) / (2 * h)
        assert abs(fd1 - wt[0]) < 1e-8 * max(1.0, abs(wt[0]))


def test_factor_root_times_spacelike_always_finite():
    z = np.array([-5.0, -2.0, 0.0, 3.0])
    roots = factor_root_times(z, 1)
    assert np.all(np.isfinite(roots))
    assert np.allclose(roots, np.pi / 2 + np.arctan(z / 2), atol=1e-14)


def test_factor_root_times_lightlike_needs_negative_slope():
    roots = factor_root_times(np.array([-4.0, -1.0, 0.0, 2.0]), 0)
    assert np.allclose(roots[:2], [0.5, 2.0])
    assert np.isinf(roots[2:]).all()


def test_factor_root_times_timelike_needs_slope_below_minus_two():
    z = np.array([-3.0, -2.0, 0.0, 5.0])
    roots = factor_root_times(z, -1)
    assert abs(roots[0] - 0.5 * math.log(5.0)) < 1e-14
    assert np.isinf(roots[1:]).all()


@given(st.floats(-20.0, -2.1), st.floats(1e-3, 1.0))
def test_factor_roots_are_actual_zeros(z0, back_off):
    root = factor_root_times(np.array([z0]), -1)[0]
    w, _ = factor(np.array([z0]), -1, root)
    assert abs(w[0]) < 1e-10
    w_before, _ = factor(np.array([z0]), -1, root * (1.0 - back_off))
    assert w_before[0] > 0


def test_blowup_times_of_the_named_data():
    expected_b = 0.5 * math.log((3 / math.sqrt(2) + 3) / (3 / math.sqrt(2) - 1))
    expected_s = math.pi / 2 - math.atan(math.sqrt(2.0))
    for n in (256, 4096):
        assert abs(blowup_time(preset("fig1a", n)) - 0.5 * math.log(3.0)) < 1e-12
        assert abs(blowup_time(preset("fig1b", n)) - expected_b) < 1e-12
        assert blowup_time(preset("fig1c", n)) == math.inf
        assert abs(blowup_time(preset("lightlike", n)) - 1.0) < 1e-12
        assert abs(blowup_time(preset("spacelike", n)) - expected_s) < 1e-12
        assert blowup_time(preset("stationary", n)) == math.inf


def test_borderline_slopes_of_global_data_stay_global():
    # rounding in the spectral u0x puts the borderline slope -2 of these
    # data up to ~0.5 n eps max|z| off the threshold; at n = 4096 a fixed
    # 1e-12 margin gave six shift members finite clocks of 13.8-28.4
    grid = Grid(4096)
    base = np.cos(2 * np.pi * grid.x)
    data = [preset("fig1c", 8192)]
    for k in range(16):
        s = (10 + k) / 10
        raw = InitialData.from_gradient(grid.function(base), grid.function(base + s), -1)
        data.append(raw)
    for raw in data:
        d, _ = normalize(raw)
        assert blowup_time(d) == math.inf
        assert blowup_time_bisect(d) == math.inf
        assert is_global(d)
        assert admissibility(d).admissible
        assert boundary_hit_time(raw) == math.inf


def test_bisection_confirms_the_closed_forms():
    for name in ("fig1a", "fig1b", "lightlike", "spacelike"):
        d = preset(name)
        assert abs(blowup_time_bisect(d, t_max=3.0) - blowup_time(d)) < 1e-8


def _bisect_reference(c, z, t_max=20.0, step=1e-3):
    """Scan and 60-step bisection: the reference for the multisection of
    engine._scan_bisect. Same scan; each breaking end slope that changes
    sign in the first bracket is bisected 60 times, far past the float
    spacing of a 1e-3 bracket, and the earliest upper end is returned."""
    z = z[engine._breaking(z, c)].real
    if z.size == 0:
        return math.inf
    ends = np.array([z.min(), z.max()])
    t = 0.0
    while t < t_max:
        ts = np.minimum(t + step * np.arange(1, engine.SCAN_BLOCK + 1), t_max)
        w = factor(ends, c, ts[:, None])[0]
        rows = np.nonzero((w <= 0.0).any(axis=1))[0]
        if rows.size:
            k = rows[0]
            zz = ends[w[k] <= 0.0]
            lo = np.full(zz.shape, ts[k - 1] if k else t)
            hi = np.full(zz.shape, ts[k])
            for _ in range(60):
                mid = 0.5 * (lo + hi)
                neg = factor(zz, c, mid)[0] <= 0.0
                hi = np.where(neg, mid, hi)
                lo = np.where(neg, lo, mid)
            return float(hi.min())
        t = float(ts[-1])
    return math.inf


def _family_and_presets(n):
    grid = Grid(n)
    base = grid.function(np.cos(2 * np.pi * grid.x))
    raw = [InitialData.from_gradient(base, base * r) for r in np.linspace(0.0, 3.0, 31)]
    raw += [InitialData.from_gradient(base, base + s) for s in np.linspace(0.0, 2.5, 26)]
    for name in ("fig1a", "fig1b", "fig1c", "lightlike", "spacelike", "stationary"):
        d = preset(name, n)
        raw += [d, normalize(InitialData(d.u0, d.rho0, 1))[0]]
    return raw


@pytest.mark.parametrize("n", [64, 4096])
def test_multisection_equals_the_bisection_reference(n):
    finite = 0
    for raw in _family_and_presets(n):
        d, _ = normalize(raw)
        c, z = engine._analysis(d)
        got = blowup_time_bisect(d)
        assert got == _bisect_reference(c, np.concatenate(z))
        finite += math.isfinite(got)
        if raw.kappa == -1:
            c, z = engine._analysis(raw, "casimir")
            assert boundary_hit_time(raw) == _bisect_reference(c, np.concatenate(z))
    assert finite > 40


@pytest.mark.parametrize("c", [-1, 0, 1])
def test_multisection_takes_the_first_of_two_breaking_ends(c):
    # both end slopes cross zero inside the same scan step, at different floats
    z = np.array([-3.0, -3.0 - 1e-7, 0.5 if c < 1 else 3.0])
    roots = factor_root_times(z[:2], c)
    assert np.floor(roots / 1e-3)[0] == np.floor(roots / 1e-3)[1]
    assert roots[0] - roots[1] > 1e-10
    got = engine._scan_bisect(c, z, 20.0, 1e-3)
    assert got == _bisect_reference(c, z)
    assert abs(got - roots[1]) < 4 * math.ulp(roots[1])


def test_each_breakdown_reader_differentiates_once(monkeypatch):
    calls = []

    def counted(f):
        calls.append(f)
        return derivative(f)

    for mod in (data, engine, sphere, weak):
        monkeypatch.setattr(mod, "derivative", counted)
    grid = Grid(256)
    base = grid.function(np.cos(2 * np.pi * grid.x))
    raw = InitialData.from_gradient(base, base * 2.0)
    d, _ = normalize(raw)
    readers = [blowup_time, singular_time_literal, blowup_time_bisect, is_global, admissibility]
    for call, arg in [(f, d) for f in readers] + [(boundary_hit_time, raw)]:
        calls.clear()
        call(arg)
        assert len(calls) == 1, call.__name__


def test_breakdown_member_memory_stays_small():
    # the full per-member chain of the breakdown sweep on a spacelike
    # member, whose slopes all break. Each reader peaks at about 0.30 MB,
    # in its one derivative; a blowup_time that root-solves both branches
    # concatenated peaks at 0.44 MB.
    grid = Grid(4096)
    base = grid.function(np.cos(2 * np.pi * grid.x))
    rho0 = base * 0.5
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        raw = InitialData.from_gradient(base, rho0)
        d, cls = normalize(raw)
        assert cls.c > 0
        blowup_time(d)
        singular_time_literal(d)
        blowup_time_bisect(d)
        is_global(d)
        admissibility(d)
        boundary_hit_time(raw)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert peak <= 0.36e6


def test_literal_first_root_differs_for_crossing_factors():
    d = preset("fig1a")
    assert singular_time_literal(d) > blowup_time(d) + 0.5


def test_is_global_matches_breakdown():
    assert is_global(preset("fig1c"))
    assert is_global(preset("stationary"))
    assert not is_global(preset("fig1a"))
    assert not is_global(preset("spacelike"))


def test_fields_at_time_zero_reduce_to_the_data():
    d = preset("fig1b")
    lf = lagrangian_fields(d, 0.0)
    assert (lf.ux - d.u0x).sup_norm() < 1e-13
    assert (lf.rho - d.rho0).sup_norm() < 1e-13
    assert np.abs(lf.phi.values - d.grid.x).max() < 1e-13
    assert (lf.phi_x - d.grid.constant(1.0)).sup_norm() < 1e-13


def test_zero_density_stays_zero():
    d = preset("spacelike")
    assert d.rho0.sup_norm() == 0.0
    lf = lagrangian_fields(d, 0.3)
    assert lf.rho.sup_norm() < 1e-14


def test_constant_gap_data_has_one_pure_exponential_factor():
    x = GRID.x
    d = InitialData.from_gradient(
        GRID.function(np.cos(2 * np.pi * x)),
        GRID.function(np.cos(2 * np.pi * x) + 2.0),
        -1,
    )
    t = 1.0
    lf = lagrangian_fields(d, t)
    expect = np.exp(-t) * (np.cosh(t) + (np.cos(2 * np.pi * x) + 1.0) * np.sinh(t))
    assert np.abs(lf.phi_x.values - expect).max() < 1e-12
    assert lf.phi_x.min() > 0


def test_slope_dives_unbounded_at_breakdown():
    d = preset("fig1a")
    lf = lagrangian_fields(d, blowup_time(d) - 1e-4)
    assert lf.ux.min() < -1e3


def test_fields_refuse_times_past_breakdown():
    d = preset("fig1a")
    with pytest.raises(BlowupReached):
        lagrangian_fields(d, blowup_time(d) + 0.01)


def test_flow_velocity_is_the_time_derivative_of_the_flow():
    d = preset("fig1c")
    h = 1e-6
    phi_t = lagrangian_fields(d, 0.8).phi_t
    lp = lagrangian_fields(d, 0.8 + h)
    lm = lagrangian_fields(d, 0.8 - h)
    fd = (lp.phi.values - lm.phi.values) / (2 * h)
    assert np.abs(phi_t.values - fd).max() < 1e-8


@given(mean_zero_trig(modes=3))
def test_compose_with_inverse_round_trip(bump):
    scale = 0.35 / max(bump.sup_norm(), 1.0)
    w = 1.0 + scale * bump.values
    w = w / w.mean()
    phi = antiderivative_from_zero(GridFunction(GRID, w)).values
    s = np.sin(2 * np.pi * GRID.x)
    pulled = compose_with_inverse(phi, s, GRID)

    gap = GridFunction(GRID, phi - GRID.x)
    xi = np.array(
        [brentq(lambda z, y=y: z + gap.eval_at(np.array([z]))[0] - y, -1.0, 2.0, xtol=1e-14)
         for y in GRID.x]
    )
    assert np.abs(pulled - np.sin(2 * np.pi * xi)).max() < 1e-10


def test_compose_with_identity_is_a_no_op():
    s = np.cos(2 * np.pi * GRID.x)
    out = compose_with_inverse(GRID.x.copy(), s, GRID)
    assert np.abs(out - s).max() < 1e-12


@pytest.mark.parametrize("t", [1.0, 2.6, 5.0])
def test_columns_share_one_inversion(t):
    # phi_x meets its e^{-2t} floor at x = 1/2
    grid = Grid(512)
    d = InitialData.from_gradient(
        grid.sample(lambda x: 2.0 * np.cos(2 * np.pi * x)),
        grid.sample(lambda x: 2.0 * (1.0 + np.cos(2 * np.pi * x))),
    )
    s = flow_state(d, t)
    both = compose_with_inverse(s.phi.values, (s.phi_t.values, s.rho.values), grid)
    assert both.shape == (2, 512)
    assert np.array_equal(both[0], compose_with_inverse(s.phi.values, s.phi_t.values, grid))
    assert np.array_equal(both[1], compose_with_inverse(s.phi.values, s.rho.values, grid))


def test_compose_through_a_vanishing_slope():
    # phi_x = 1 - cos 2 pi x is exactly zero at the node x = 0, where the
    # inverse has a cube-root cusp; x - phi is band-limited, so composing
    # it gives the inverse labels xi = y + (x - phi)(xi) at rounding
    grid = Grid(256)
    y = grid.x
    phi = y - np.sin(2 * np.pi * y) / (2 * np.pi)
    xi = y + compose_with_inverse(phi, y - phi, grid)
    assert np.abs(xi - np.sin(2 * np.pi * xi) / (2 * np.pi) - y).max() < 1e-12


def test_unconverged_inversion_is_refused(monkeypatch):
    grid = Grid(64)
    phi = grid.x + 0.1 * np.sin(2 * np.pi * grid.x) / (2 * np.pi)
    monkeypatch.setattr(engine, "INVERT_ITERS", 1)
    with pytest.raises(NotInvertible):
        compose_with_inverse(phi, np.cos(2 * np.pi * grid.x), grid)


def test_eulerian_time_zero_is_the_data():
    d = preset("fig1c")
    u, rho = eulerian_solution(d, 0.0)
    assert (u - d.u0).sup_norm() < 1e-12
    assert (rho - d.rho0).sup_norm() < 1e-12
    assert abs(u.values[0]) < 1e-14


def test_eulerian_velocity_gauge_pins_the_origin():
    u, _ = eulerian_solution(preset("fig1c"), 1.7)
    assert abs(u.values[0]) < 1e-13


def test_eulerian_rejects_nearly_degenerate_flow():
    d = preset("fig1a")
    with pytest.raises(NotInvertible):
        eulerian_solution(d, blowup_time(d) - 1e-9)


def _positive_kappa_data(rho_mult=1.0, rho_shift=2.0):
    x = GRID.x
    raw = InitialData.from_gradient(
        GRID.function(np.cos(2 * np.pi * x)),
        GRID.function(rho_mult * np.cos(2 * np.pi * x) + rho_shift),
        1,
    )
    d, _ = normalize(raw)
    return d


def test_positive_kappa_flow_map_initial_conditions():
    d = _positive_kappa_data()
    lf = lagrangian_fields(d, 0.0)
    assert np.abs(lf.phi.values - GRID.x).max() < 1e-13
    assert (lf.phi_x - GRID.constant(1.0)).sup_norm() < 1e-13
    assert (lf.phi_t - d.u0).sup_norm() < 1e-13


def test_positive_kappa_breakdown_needs_a_bare_node():
    assert blowup_time(_positive_kappa_data()) == math.inf


def test_positive_kappa_breakdown_where_density_vanishes():
    d = _positive_kappa_data(rho_mult=3.0, rho_shift=0.0)
    assert abs(blowup_time(d) - math.pi / 2) < 1e-12


def test_positive_kappa_eulerian_time_zero():
    d = _positive_kappa_data()
    u, rho = eulerian_solution(d, 0.0)
    assert (u - d.u0).sup_norm() < 1e-12
    assert (rho - d.rho0).sup_norm() < 1e-12
