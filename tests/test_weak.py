"""Global conservative flow for admissible data: invariants and continuation."""

import math
import time
import tracemalloc

import numpy as np
import pytest

from hsgeo.data import InitialData, normalize, preset
from hsgeo.engine import blowup_time, eulerian_solution, is_global, lagrangian_fields
from hsgeo.errors import BlowupReached, NotAdmissible
from hsgeo.weak import (
    admissibility,
    energy,
    flow,
    geodesic_residual,
    lagrangian_snapshot,
    weak_residual,
    weak_solution,
    weak_state,
)
from hsgeo.grid import Grid, derivative, integrate
from hsgeo.sphere import geodesic
from conftest import count_work

FIG1A = preset("fig1a")
FIG1B = preset("fig1b")
FIG1C = preset("fig1c")
STAT = preset("stationary")


def test_boundary_equality_data_is_admissible():
    r = admissibility(FIG1C)
    assert r.condition_A and r.condition_B
    assert r.admissible
    assert len(r.violating_nodes) == 0


def test_violating_data_fails_the_slope_condition():
    for d in (FIG1A, FIG1B):
        r = admissibility(d)
        assert r.condition_A
        assert not r.condition_B
        assert len(r.violating_nodes) > 0


def test_constant_data_is_admissible():
    r = admissibility(STAT)
    assert r.admissible
    assert abs(r.c_value + 1.0) < 1e-15


def test_wrong_class_fails_condition_a():
    r = admissibility(preset("spacelike"))
    assert not r.condition_A
    assert not r.admissible


def test_flow_refuses_inadmissible_data():
    # fig1a breaks; fig1c x 1.01 has c = -1.0201, off the class -1 and not
    # normalized, so it is refused on its Casimir before any normalized
    # analysis could raise ValueError on it
    off = InitialData(FIG1C.u0 * 1.01, FIG1C.rho0 * 1.01, -1)
    for d in (FIG1A, off):
        with pytest.raises(NotAdmissible, match="violate the slope bound"):
            weak_state(d, 1.0)


def test_state_at_time_zero_is_the_data():
    s = weak_state(FIG1C, 0.0)
    gr = FIG1C.grid
    assert (s.phi - gr.function(gr.x)).sup_norm() < 1e-12
    assert s.alpha.sup_norm() < 1e-12
    assert (s.phi_t - FIG1C.u0).sup_norm() < 1e-12
    assert (s.alpha_t - FIG1C.rho0).sup_norm() < 1e-12
    assert (s.phi_x - gr.constant(1.0)).sup_norm() < 1e-12


def test_constant_data_flows_rigidly():
    gr = STAT.grid
    for t in (0.3, 2.0, 10.0):
        s = weak_state(STAT, t)
        assert (s.phi - gr.function(gr.x)).sup_norm() < 1e-12
        assert (s.alpha_t - gr.constant(2.0)).sup_norm() < 1e-12


def test_energy_is_conserved_at_minus_four():
    for d in (FIG1C, STAT):
        worst = max(abs(energy(weak_state(d, t)) + 4.0) for t in np.linspace(0.0, 10.0, 40))
        assert worst < 1e-8


def test_weak_and_classical_states_are_one_assembly():
    a2 = InitialData.from_gradient(*(FIG1C.grid.sample(f) for f in (
        lambda x: 2.0 * np.cos(2 * np.pi * x), lambda x: 2.0 * np.cos(2 * np.pi * x) + 2.0)))
    for d in (FIG1C, STAT, a2):
        for t in (0.0, 0.5, 2.6, 5.0, 10.0, 20.0):
            w, c = weak_state(d, t), lagrangian_fields(d, t)
            for name in ("phi", "phi_t", "phi_x", "phi_tx"):
                assert np.array_equal(getattr(w, name).values, getattr(c, name).values)


def _chart_data():
    """fig1c, the stationary datum and the cosine data u0x = a cos 2 pi x,
    rho0 = u0x + 2 (fig1c at a = 1), at three sizes."""
    for n in (64, 256, 1024):
        grid = Grid(n)
        yield preset("stationary", n)
        for a in (0.5, 1.0, 1.5, 2.0):
            yield InitialData.from_gradient(*(grid.sample(f) for f in (
                lambda x: a * np.cos(2 * np.pi * x), lambda x: a * np.cos(2 * np.pi * x) + 2.0)))


def test_weak_chart_is_the_pseudosphere_geodesic():
    # both take the branch factors w_p, w_q = f1 +- f2 from engine.factor;
    # the weak flow evaluated its own c < 0 factors and missed the
    # geodesic in the last bits on 18 of these 90 frames
    for d in _chart_data():
        for t in (0.0, 0.3, 1.0, 5.0, 12.0, 20.0):
            w, g = weak_state(d, t), geodesic(d, t)
            assert np.array_equal(w.f1.values, g.f1.values), (d.grid.n, t)
            assert np.array_equal(w.f2.values, g.f2.values), (d.grid.n, t)


def test_casimir_defect_within_tolerance_is_projected_out():
    # fig1c scaled by 1 - 1e-11: c = -1 + 2e-11 passes the class check; at
    # the class -1 the half-slope product r ~ 1e-11 has mean 2e-11, which
    # sinh^2 t would carry into the winding of phi (2.4e-3 at t = 10)
    lam = 1.0 - 1e-11
    d = InitialData.from_gradient(FIG1C.u0x * lam, FIG1C.rho0 * lam)
    assert admissibility(d).admissible
    for t in (5.0, 10.0):
        assert abs(integrate(weak_state(d, t).phi_x) - 1.0) < 1e-12


@pytest.mark.parametrize("t", [12.0, 15.0, 20.0])
def test_admissible_data_off_the_unit_class_flow_at_long_times(t):
    # fig1c scaled by 1 - 1e-11 is admissible (c = -1 + 2e-11). At the
    # class -1 its half-slope h_q = 1e-11 grew like e^{2t} and folded phi
    # past t = 12; at its own class h_q vanishes
    d = preset("fig1c", 256)
    lam = 1.0 - 1e-11
    raw = InitialData(d.u0 * lam, d.rho0 * lam, -1)
    norm, _ = normalize(raw)
    assert norm is not raw and admissibility(raw).admissible
    s, ref = weak_state(raw, t), weak_state(norm, t)
    assert np.diff(s.phi.values).min() >= 0.0
    assert s.phi_x.min() >= math.exp(-2.0 * t)
    for name in ("phi", "phi_t", "phi_x", "phi_tx"):
        assert np.abs(getattr(s, name).values - getattr(ref, name).values).max() <= 1e-9


def test_slope_below_its_own_threshold_is_refused():
    # rho0 = cos 2 pi x + 2 - 1e-10 (1 + cos 2 pi x) / 2 has c = -1 + 6e-11
    # and q0 >= -2, but q0 = -2 at x = 1/2 lies below the threshold
    # -2 sqrt(-c) of its own class: that factor has a root. The report,
    # the clocks and both flows read the slopes at that class, so all of
    # them say so: not admissible, not global, and the classical flow
    # stops at the clock's breakdown time
    d = preset("fig1c", 256)
    cos = np.cos(2 * np.pi * d.grid.x)
    raw = InitialData(d.u0, d.rho0 - 1e-10 * 0.5 * (1.0 + cos), -1)
    report = admissibility(raw)
    assert report.condition_A and not report.condition_B and 128 in report.violating_nodes
    assert not is_global(raw)
    tstar = blowup_time(raw)
    assert 12.0 < tstar < 13.0
    lagrangian_fields(raw, tstar - 1e-3)
    with pytest.raises(BlowupReached):
        lagrangian_fields(raw, tstar)
    for t in (0.0, 15.0):
        with pytest.raises(NotAdmissible, match="violate the slope bound"):
            weak_state(raw, t)


def _agreement_family():
    """Data around the class -1 and the breakdown threshold: cosine data
    u0x = a cos 2 pi x, rho0 = u0x + 2 scaled to c = -1 + delta (its
    slope q0 sits on its own threshold), the fig1c datum with a slope
    just below its own threshold, the six presets at both couplings and
    the zero datum."""
    deltas = (0.0, 1e-13, -1e-13, 1e-11, -1e-11, 5e-10, -5e-10, 1.1e-9, -1.1e-9)
    for n in (64, 256):
        base = preset("fig1c", n)
        cos = np.cos(2 * np.pi * base.grid.x)
        for a in (0.5, 1.0, 2.0):
            for delta in deltas:
                lam = math.sqrt(1.0 - delta)
                yield InitialData(base.u0 * (a * lam), (base.u0x * a + 2.0) * lam, -1)
        yield InitialData(base.u0, base.rho0 - 1e-10 * 0.5 * (1.0 + cos), -1)
        for name in ("fig1a", "fig1b", "fig1c", "lightlike", "spacelike", "stationary"):
            d = preset(name, n)
            for kappa in (-1, 1):
                yield normalize(InitialData(d.u0, d.rho0, kappa))[0]
    zero = preset("fig1c", 64).grid.zero()
    yield InitialData(zero, zero, -1)


def test_global_admissible_and_clock_answers_agree():
    # one analysis decides every flow: is_global is the clock at +inf,
    # the flow admits exactly what the admissibility report admits, and
    # its refusal time is the clock. Unnormalized data (a Casimir past
    # CLASS_TOL of -1) has no clock and is refused by the weak flow
    seen = set()
    for d in _agreement_family():
        report = admissibility(d)
        try:
            tstar = blowup_time(d)
        except ValueError:
            assert not report.condition_A
            for call in (is_global, flow):
                with pytest.raises(ValueError):
                    call(d)
            with pytest.raises(NotAdmissible):
                weak_state(d, 1.0)
            seen.add("unnormalized")
            continue
        assert is_global(d) == math.isinf(tstar)
        run = flow(d)
        assert run.admissible == report.admissible
        assert run.t_star == tstar
        if report.admissible:
            assert math.isinf(tstar)
            weak_state(d, 1.0)
        else:
            with pytest.raises(NotAdmissible, match="violate the slope bound"):
                weak_state(d, 1.0)
        seen.add((report.admissible, math.isinf(tstar)))
    assert seen == {"unnormalized", (True, True), (False, True), (False, False)}


def test_density_transport_identity():
    worst = 0.0
    for t in (0.0, 0.5, 1.0, 2.0, 5.0, 10.0):
        s = weak_state(FIG1C, t)
        worst = max(worst, np.abs(s.alpha_t.values * s.phi_x.values - FIG1C.rho0.values).max())
    assert worst < 1e-9


def test_flow_gradient_keeps_its_exponential_floor():
    for t in (0.5, 2.0, 6.0, 10.0):
        s = weak_state(FIG1C, t)
        assert s.phi_x.min() >= math.exp(-2.0 * t) - 1e-9


def test_unit_winding_is_preserved():
    s = weak_state(FIG1C, 10.0)
    assert abs(integrate(s.phi_x) - 1.0) < 1e-12


def test_weak_flow_extends_the_classical_solution():
    for t in (0.1, 0.3):
        uw, rw = weak_solution(FIG1C, t)
        ue, re = eulerian_solution(FIG1C, t)
        assert (uw - ue).sup_norm() < 1e-8
        assert (rw - re).sup_norm() < 1e-8


def test_conserved_integral_of_the_continued_fields():
    for t in (0.5, 2.0, 5.0):
        u, rho = weak_solution(FIG1C, t)
        ux = derivative(u)
        assert abs(integrate(ux * ux - rho * rho) + 4.0) < 1e-8


def test_reconstruction_memory_and_time_stay_linear():
    # the dense evaluator held n x n/2 angle matrices: over 100 MB and 6-9 s here
    d = preset("fig1c", 4096)
    start = time.monotonic()
    tracemalloc.start()
    try:
        u, rho = weak_solution(d, 3.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert time.monotonic() - start < 2.0
    assert peak < 32e6
    ux = derivative(u)
    assert abs(integrate(ux * ux - rho * rho) + 4.0) < 1e-8


def test_stationary_fields_never_move():
    for t in (0.5, 4.0):
        u, rho = weak_solution(STAT, t)
        assert u.sup_norm() < 1e-12
        assert (rho - STAT.grid.constant(2.0)).sup_norm() < 1e-12


def test_geodesic_residual_small_along_the_flow():
    assert geodesic_residual(FIG1C, 0.0) < 1e-8
    for t in (0.5, 1.0, 2.0, 5.0):
        assert geodesic_residual(FIG1C, t) < 1e-6
    for t in (0.7, 3.0):
        assert geodesic_residual(STAT, t) < 1e-8


def test_weak_residual_past_the_classical_clock():
    for t in (0.5, 2.0, 5.0):
        assert weak_residual(FIG1C, t) < 1e-5
    assert weak_residual(STAT, 1.0) < 1e-10


def test_residuals_analyse_their_datum_once(monkeypatch):
    # each took whole flows: weak_residual one per weak_solution (3), and
    # geodesic_residual one for its state and its own for phi_ttx (2)
    for residual in (weak_residual, geodesic_residual):
        work = count_work(monkeypatch)
        residual(FIG1C, 1.0)
        assert work["analyses"] == 1, residual.__name__
        monkeypatch.undo()


def test_flow_is_periodic_in_space_not_time():
    gr = FIG1C.grid
    s = weak_state(FIG1C, 2.0 * math.pi)
    dev = (s.phi - gr.function(gr.x)).sup_norm()
    assert dev > 0.05
    assert abs(dev - (1 - math.exp(-4 * math.pi)) / (4 * math.pi)) < 1e-3


def test_snapshot_at_time_zero():
    assert (lagrangian_snapshot(FIG1C, 0.0) - FIG1C.u0x).sup_norm() < 1e-10


def test_snapshot_blows_down_at_breakdown():
    tstar = blowup_time(FIG1A)
    snap = lagrangian_snapshot(FIG1A, tstar - 1e-4)
    assert snap.min() < -1e3
    with pytest.raises(BlowupReached):
        lagrangian_snapshot(FIG1A, tstar + 0.1)


def test_admissible_snapshots_stay_bounded():
    worst = max(lagrangian_snapshot(FIG1C, t).sup_norm() for t in np.linspace(0, 10, 20))
    assert worst < 50.0
