"""Characteristic solver: scalar flows, breakdown detection, field evaluation."""

import math
import tracemalloc
import warnings

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
from hsgeo.errors import BlowupReached, NotInvertible, Singular
from hsgeo.grid import Grid, GridFunction, _interpolant, antiderivative_from_zero, derivative
from hsgeo.sphere import boundary_hit_time
from hsgeo.weak import admissibility, flow_state
from conftest import GRID, count_work, mean_zero_trig

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
    try:
        z = riccati(np.array([z0]), c, t)[0]
        if not math.isfinite(z) or abs(z) > 50:
            return
        zp = riccati(np.array([z0]), c, t + h)[0]
        zm = riccati(np.array([z0]), c, t - h)[0] if t >= h else z0
    except Singular:  # a factor root at a sampled time (z0 = -6, c = 0, t = 1/3): z is unbounded
        return
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


def test_factor_roots_keep_their_accuracy_near_the_lightlike_class():
    # slope -2 breaks at arctan(s)/s (c = s^2 > 0) or artanh(s)/s (c = -s^2),
    # which is 1 to rounding for |c| <= 1e-16; 5.3e-17 is the raw Casimir of
    # the lightlike cosine datum at n = 4096. Root formulas that take the log
    # of a ratio 1 + O(s), or pi/2 + arctan(-1/s), lose eps/s there
    for c in (1e-16, -1e-16, 1e-8, -1e-8, 5.3e-17, 1e-4, -1e-4):
        s = math.sqrt(abs(c))
        exact = math.atan(s) / s if c > 0 else math.atanh(s) / s
        root = factor_root_times([-2.0], c)[0]
        assert abs(root - exact) <= 4 * math.ulp(exact), c
        if abs(c) <= 1e-16:
            assert abs(root - 1.0) <= 4 * math.ulp(1.0), c
    # the boundary clock of the lightlike cosine datum at its raw Casimir
    # 5.3e-17: the spectral u0x puts its least slope 1.8e-13 above -2, so
    # its exact root is -2 / z_min = 1 + 8.9e-14 (the scan reads the same)
    grid = Grid(4096)
    base = grid.function(np.cos(2 * np.pi * grid.x))
    raw = InitialData.from_gradient(base, base)
    c, (p0, _) = engine._analysis(raw, "casimir")
    assert 0 < c < 1e-16
    exact = -2.0 / p0.min()
    assert abs(boundary_hit_time(raw) - exact) <= 4 * math.ulp(exact)


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
            # the scan at the raw Casimir, and the boundary clock's root formula there
            c, z = engine._analysis(raw, "casimir")
            ref = _bisect_reference(c, np.concatenate(z))
            assert engine._scan_bisect(*engine._analysis(raw, "casimir"), 20.0, 1e-3) == ref
            hit = boundary_hit_time(raw)
            assert hit == ref or abs(hit - ref) <= 4 * math.ulp(ref)
    assert finite > 40


@pytest.mark.parametrize("c", [-1, 0, 1])
def test_multisection_takes_the_first_of_two_breaking_ends(c):
    # both end slopes cross zero inside the same scan step, at different floats
    z = np.array([-3.0, -3.0 - 1e-7, 0.5 if c < 1 else 3.0])
    roots = factor_root_times(z[:2], c)
    assert np.floor(roots / 1e-3)[0] == np.floor(roots / 1e-3)[1]
    assert roots[0] - roots[1] > 1e-10
    got = engine._scan_bisect(c, (z,), 20.0, 1e-3)
    assert got == _bisect_reference(c, z)
    assert abs(got - roots[1]) < 4 * math.ulp(roots[1])


def _sweep_member():
    """The seven readers of a breakdown sweep member, on the raw datum
    and its normalized copy; True if the copy is a new datum."""
    grid = Grid(256)
    base = grid.function(np.cos(2 * np.pi * grid.x))
    raw = InitialData.from_gradient(base, base * 2.0)
    d, _ = normalize(raw)
    for call in (blowup_time, singular_time_literal, blowup_time_bisect, is_global, admissibility):
        call(d)
    boundary_hit_time(raw)
    return d is not raw


def test_a_sweep_member_differentiates_each_datum_once(monkeypatch):
    # the readers share the gradient each datum keeps
    calls = []

    def counted(f):
        calls.append(f)
        return derivative(f)

    for mod in (data, engine, sphere, weak):
        monkeypatch.setattr(mod, "derivative", counted)
    assert _sweep_member()
    assert len(calls) == 2


def test_a_sweep_member_evaluates_each_casimir_once(monkeypatch):
    # the readers share the Casimir each datum keeps (8 evaluations when
    # every reader took its own)
    work = count_work(monkeypatch)
    assert _sweep_member()
    assert work["casimirs"] == 2


def test_breakdown_member_memory_stays_small():
    # the full per-member chain of the breakdown sweep on a spacelike
    # member, whose slopes all break, and on the amplitude member r = 3,
    # whose admissibility report lists a third of the nodes. Both data keep their
    # gradient; the readers set the slopes and solve the roots in place,
    # and the report frees the slopes before listing the nodes. The
    # members peak at 0.27 and 0.20 MB, and at 0.30 and 0.23 MB when each
    # reader differentiated its datum; a blowup_time that root-solves
    # both branches concatenated peaks at 0.44 MB. The grid's wavenumber
    # tables, built once per process, are built before measuring.
    grid = Grid(4096)
    base = grid.function(np.cos(2 * np.pi * grid.x))
    assert InitialData.from_gradient(base, base).u0x is not None
    for r in (0.5, 3.0):
        rho0 = base * r
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            raw = InitialData.from_gradient(base, rho0)
            d, cls = normalize(raw)
            assert (cls.c > 0) == (r < 1)
            blowup_time(d)
            singular_time_literal(d)
            blowup_time_bisect(d)
            is_global(d)
            assert len(admissibility(d).violating_nodes) > (grid.n // 4 if r > 1 else -1)
            boundary_hit_time(raw)
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        assert peak <= 0.3e6, r


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


@pytest.mark.parametrize("t", [10.0, 15.0, 20.0])
def test_cosine_flow_velocity_stays_exact_at_long_times(t):
    # u0x = cos 2 pi x, rho0 = u0x + 2: one factor is e^{-t}, and the flow
    # velocity is e^{-2t} sin(2 pi x) / (2 pi), far below the e^{2t} terms
    # that a product of factor rates cancels (off by 1.0 in u at t = 20)
    grid = Grid(1024)
    cos = grid.sample(lambda x: np.cos(2 * np.pi * x))
    d = InitialData.from_gradient(cos, cos + 2.0)
    exact = math.exp(-2.0 * t) * np.sin(2 * np.pi * grid.x) / (2 * np.pi)
    phi_t = lagrangian_fields(d, t).phi_t.values
    assert np.abs(phi_t - exact).max() <= 1e-12 * np.abs(exact).max()


@pytest.mark.parametrize("t", [12.0, 15.0, 20.0])
def test_classical_flow_off_the_unit_class_does_not_fold(t):
    # fig1c scaled by 1 - 1e-11 (c = -1 + 2e-11) never breaks; at the class
    # -1 its half-slope h_q = 1e-11 grew like e^{2t} and min phi_x read 0.434,
    # -26.2 and -5.9e5 at t = 12, 15, 20, where the weak flow reads 0.5
    d = preset("fig1c", 256)
    lam = 1.0 - 1e-11
    d = InitialData(d.u0 * lam, d.rho0 * lam, -1)
    assert blowup_time(d) == math.inf
    got, want = lagrangian_fields(d, t).phi_x.values, weak.weak_state(d, t).phi_x.values
    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()
    assert got.min() > 0.0


@pytest.mark.parametrize("name", ["fig1a", "fig1b"])
def test_timelike_fields_match_the_factor_product_up_to_breakdown(name):
    # the expanded timelike assembly against phi_x = w_p w_q and its rate
    d = preset(name)
    c, (p0, q0) = engine._analysis(d)
    tstar = blowup_time(d)
    for t in (0.1, 0.5 * tstar, tstar - 1e-4):
        (wp, wtp), (wq, wtq) = factor(p0, c, t), factor(q0, c, t)
        lf = lagrangian_fields(d, t)
        assert np.abs(lf.phi_x.values / (wp * wq) - 1.0).max() < 1e-12
        rate = wtp * wq + wp * wtq
        assert np.abs(lf.phi_tx.values - rate).max() < 1e-13 * np.abs(rate).max()


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


def _reference_invert(phi, grid):
    """The flow-map inversion as it was before the Newton slope came from
    the state: phi - x differentiated for its slope, and each label
    started at the secant point of its bracket. The reference for
    engine._invert."""
    x = grid.x
    bump = GridFunction(grid, phi - x)
    at = _interpolant(np.stack((bump.values, 1.0 + derivative(bump).values)))
    ends = np.append(phi, phi[0] + 1.0)
    k = np.clip(np.searchsorted(ends, x, side="right"), 1, grid.n)
    lo, hi = (k - 1) * grid.h, k * grid.h
    with np.errstate(divide="ignore", invalid="ignore"):
        frac = (x - ends[k - 1]) / (ends[k] - ends[k - 1])
    xi = lo + grid.h * np.clip(np.nan_to_num(frac, nan=0.5), 0.0, 1.0)
    act = np.arange(grid.n)
    tol = engine.INVERT_ULPS * engine.EPS
    for _ in range(engine.INVERT_ITERS):
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
        act = act[~((np.abs(res) <= tol) | (np.abs(new - pt) <= tol))]
        if act.size == 0:
            return xi
    raise AssertionError("reference inversion did not converge")


def _reference_eulerian(s):
    """(u, rho) of a flow state through the reference inversion."""
    px = s.phi_x.values
    xi = _reference_invert(s.phi.values, s.phi.grid)
    u, rho0, phi_x = _interpolant(np.stack((s.phi_t.values, s.rho.values * px, px)))(xi)
    u[0] = 0.0
    return u, rho0 / phi_x


def cosine_datum(a, n):
    """u0x = a cos 2 pi x, rho0 = a cos 2 pi x + 2: fig1c for a = 1, and
    phi_x meeting its e^{-2t} floor at x = 1/2 for a = 2."""
    grid = Grid(n)
    return InitialData.from_gradient(grid.sample(lambda x: a * np.cos(2 * np.pi * x)),
                                     grid.sample(lambda x: a * np.cos(2 * np.pi * x) + 2.0))


@pytest.mark.parametrize("case", [
    *[("cosine", a, 1024, t) for a in (0.75, 1.0, 1.25) for t in (1.3, 7.2)],
    *[("cosine", 2.0, 512, t) for t in (0.5, 2.6, 5.0, 10.0)],
    ("fig1c kappa +1", None, 256, 0.4),
    ("fig1a", None, 256, 0.4),
])
def test_reconstruction_matches_the_reference_inversion(case):
    name, a, n, t = case
    if name == "cosine":
        d = cosine_datum(a, n)
    elif name == "fig1a":
        d = preset("fig1a", n)
    else:
        d = normalize(InitialData(preset("fig1c", n).u0, preset("fig1c", n).rho0, 1))[0]
    s = flow_state(d, t)
    assert isinstance(s, weak.WeakState) == (name == "cosine")
    u, rho = engine.eulerian_fields(s)
    u_ref, rho_ref = _reference_eulerian(s)
    assert np.abs(u.values - u_ref).max() <= 1e-13 * np.abs(u_ref).max()
    assert np.abs(rho.values - rho_ref).max() <= 1e-13 * np.abs(rho_ref).max()


def test_hermite_start_lies_in_its_bracket_and_near_the_label():
    # on fig1c at t = 3 (n = 256) the start misses the label by 3.3e-11,
    # the secant point of its bracket by up to 6.8e-6
    d = preset("fig1c")
    s = flow_state(d, 3.0)
    phi, px, grid = s.phi.values, s.phi_x.values, d.grid
    lo, hi, xi = engine._bracket(phi, px, grid.x, grid.h)
    assert np.all((lo <= xi) & (xi <= hi)) and np.all(hi - lo <= grid.h * (1 + 1e-12))
    exact = _reference_invert(phi, grid)
    assert np.abs(xi - exact).max() < 1e-9
    ends = np.append(phi, phi[0] + 1.0)
    k = np.searchsorted(ends, grid.x, side="right").clip(1, grid.n)
    secant = lo + grid.h * (grid.x - ends[k - 1]) / (ends[k] - ends[k - 1])
    assert np.abs(secant - exact).max() > 1e-6


def test_weak_density_divides_by_phi_x_held_at_its_floor(monkeypatch):
    # the composed phi_x can round to 0.0 or below where its floor is
    # e^{-40}; a weak state divides by it held at that floor
    s = weak.weak_state(cosine_datum(2.0, 64), 20.0)
    compose = engine.compose_with_inverse
    kept = {}

    def rounded(phi, cols, grid, phi_x=None):
        out = compose(phi, cols, grid, phi_x)
        out[2, [5, 32]] = 0.0, -1e-17
        kept["rho0"] = out[1].copy()
        return out

    monkeypatch.setattr(engine, "compose_with_inverse", rounded)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        _, rho = engine.eulerian_fields(s)
    floor = math.exp(-40.0)
    assert np.array_equal(rho.values[[5, 32]], kept["rho0"][[5, 32]] / floor)


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
