"""End-to-end acceptance checks with pinned tolerances and runtime budgets.

Each test freezes one headline guarantee of the package: curvature
identities, conserved quantities, breakdown clocks, cross-engine
agreement, the chart isometry, and the finite-dimensional quotient.
"""

import math
import time

import numpy as np

from hsgeo.data import casimir, preset
from hsgeo.engine import blowup_time, blowup_time_bisect, eulerian_solution, is_global
from hsgeo.errors import DegeneratePlane
from hsgeo.findim import (
    fin_metric,
    j_action,
    plane_scan,
    quotient_sec,
    random_horizontal,
    random_point,
)
from hsgeo.geometry import (
    KTangent,
    TangentPair,
    arnold_curvature,
    christoffel,
    j_tensor,
    k_curvature,
    metric_G,
    metric_K,
    nijenhuis,
    omega_form,
)
from hsgeo.grid import (
    Grid,
    GridFunction,
    antiderivative_from_zero,
    derivative,
    integrate,
    mean_zero_project,
)
from hsgeo.oracle import OracleConfig, evolve
from hsgeo.sphere import GroupElement, lorentz, pairing, phi_iso, phi_iso_inverse, tangent_map
from hsgeo.weak import energy, weak_residual, weak_state
from conftest import rand_u1, rand_u2

G256 = Grid(256)


def _random_group(rng):
    s = rand_u2(G256, rng, modes=6, const=False)
    w = np.exp(0.3 * s.values)
    w /= w.mean()
    phi = antiderivative_from_zero(GridFunction(G256, w))
    return GroupElement(phi, rand_u2(G256, rng, modes=6))


def test_01_sectional_curvature_is_the_metric_product():
    rng = np.random.default_rng(1)
    start = time.monotonic()
    worst = 0.0
    for kappa in (-1, 1):
        for _ in range(100):
            u = TangentPair(rand_u1(G256, rng), rand_u2(G256, rng))
            v = TangentPair(rand_u1(G256, rng), rand_u2(G256, rng))
            lhs = arnold_curvature(u, v, kappa)
            rhs = metric_G(u, u, kappa) * metric_G(v, v, kappa) - metric_G(u, v, kappa) ** 2
            worst = max(worst, abs(lhs - rhs) / max(1.0, abs(rhs)))
    elapsed = time.monotonic() - start
    assert worst < 1e-6
    assert elapsed < 10.0


def test_02_quotient_curvature_worked_family():
    x = G256.x
    v = KTangent(
        G256.function((1 - np.cos(6 * np.pi * x)) / (6 * np.pi)),
        G256.function(0.5 * np.sin(2 * np.pi * x)),
    )
    for a in (0.5, -0.5, 0.1, -0.1, 0.01, -0.01):
        ua = KTangent(
            G256.function((1 - np.cos(2 * np.pi * x)) / (2 * np.pi)),
            G256.function(np.sqrt(1 + a) * np.sin(4 * np.pi * x)),
        )
        product = metric_K(ua, ua) * metric_K(v, v) - metric_K(ua, v) ** 2
        assert abs(product - (-3 * a / 256)) < 1e-10 * abs(3 * a / 256)
        assert abs(omega_form(ua.as_pair(), v.as_pair()) - 1.0 / 16.0) < 1e-10
        sec = k_curvature(ua, v)
        assert abs(sec - (1 + 1 / a)) < 1e-8 * abs(1 + 1 / a)


def test_03_energy_constant_along_the_weak_flow():
    start = time.monotonic()
    for d in (preset("fig1c"), preset("stationary")):
        worst = max(
            abs(energy(weak_state(d, t)) + 4.0) for t in np.linspace(0.0, 10.0, 100)
        )
        assert worst < 1e-8
    assert time.monotonic() - start < 5.0


def test_04_breakdown_clocks_and_the_global_floor():
    d_a = preset("fig1a")
    assert abs(blowup_time(d_a) - 0.5 * math.log(3.0)) < 1e-8
    assert abs(blowup_time_bisect(d_a, t_max=2.0) - 0.5 * math.log(3.0)) < 1e-8

    ratio = (3 / math.sqrt(2) + 1) / 2
    expected_b = 0.5 * math.log((ratio + 1) / (ratio - 1))
    assert abs(blowup_time(preset("fig1b")) - expected_b) < 1e-8

    d_c = preset("fig1c")
    assert is_global(d_c)
    assert blowup_time(d_c) == math.inf
    for t in np.linspace(0.0, 10.0, 60):
        floor = (math.cosh(t) - math.sinh(t)) ** 2
        assert weak_state(d_c, t).phi_x.min() >= floor - 1e-9


def test_05_closed_forms_match_the_time_stepper():
    start = time.monotonic()
    cfg = OracleConfig(dt=1e-3)
    for name in ("spacelike", "lightlike", "fig1c"):
        d = preset(name)
        uo, ro = evolve(d, 0.3, cfg)
        ue, re = eulerian_solution(d, 0.3)
        assert max((uo - ue).l2_norm(), (ro - re).l2_norm()) < 1e-5
        ux = derivative(uo)
        drift = abs(0.25 * integrate(ux * ux + d.kappa * ro * ro) - casimir(d))
        assert drift < 1e-8
    assert time.monotonic() - start < 30.0


def test_06_chart_is_an_isometric_bijection():
    rng = np.random.default_rng(6)
    worst_round, worst_metric, worst_equiv = 0.0, 0.0, 0.0
    for _ in range(50):
        g = _random_group(rng)
        f = phi_iso(g)
        back = phi_iso_inverse(f)
        worst_round = max(
            worst_round,
            (back.phi - g.phi).sup_norm(),
            (back.alpha - g.alpha).sup_norm(),
        )

        u1 = rand_u1(G256, rng, modes=6)
        v1 = rand_u1(G256, rng, modes=6)
        u2, v2 = rand_u2(G256, rng, modes=6), rand_u2(G256, rng, modes=6)
        ref = 0.25 * integrate(derivative(u1) * derivative(v1) / g.phi_x - u2 * v2 * g.phi_x)
        worst_metric = max(
            worst_metric, abs(pairing(tangent_map(g, u1, u2), tangent_map(g, v1, v2)) - ref)
        )

        beta = float(rng.normal(0, 0.8))
        lhs = lorentz(G256.constant(beta), f)
        rhs = phi_iso(GroupElement(g.phi, g.alpha - 2 * beta))
        worst_equiv = max(
            worst_equiv, (lhs.f1 - rhs.f1).sup_norm() + (lhs.f2 - rhs.f2).sup_norm()
        )
    assert worst_round < 1e-8
    assert worst_metric < 1e-8
    assert worst_equiv < 1e-9


def test_07_product_structure_identities():
    rng = np.random.default_rng(77)
    worst = 0.0
    for _ in range(50):
        u = TangentPair(rand_u1(G256, rng), mean_zero_project(rand_u2(G256, rng)))
        v = TangentPair(rand_u1(G256, rng), mean_zero_project(rand_u2(G256, rng)))
        ju, jv = j_tensor(u), j_tensor(v)
        jj = j_tensor(ju)
        worst = max(worst, (jj.u1 - u.u1).sup_norm(), (jj.u2 - u.u2).sup_norm())

        ku, kv = KTangent(u.u1, u.u2), KTangent(v.u1, v.u2)
        kju, kjv = KTangent(ju.u1, ju.u2), KTangent(jv.u1, jv.u2)
        worst = max(worst, abs(omega_form(u, v) - metric_K(kju, kv)))
        worst = max(worst, abs(metric_K(kju, kjv) + metric_K(ku, kv)))

        n = nijenhuis(u, v)
        worst = max(worst, n.u1.sup_norm(), n.u2.sup_norm())
    assert worst < 1e-7


def test_08_flow_satisfies_the_geodesic_equation():
    d = preset("fig1c")
    dt = 1e-4
    for t in (0.5, 1.0, 2.0, 5.0):
        sp, s0, sm = weak_state(d, t + dt), weak_state(d, t), weak_state(d, t - dt)
        phi_tt = d.grid.function((sp.phi.values - 2 * s0.phi.values + sm.phi.values) / dt**2)
        alpha_tt = d.grid.function(
            (sp.alpha.values - 2 * s0.alpha.values + sm.alpha.values) / dt**2
        )
        base = GroupElement(s0.phi, s0.alpha)
        vel = TangentPair(s0.phi_t, s0.alpha_t, base=base)
        gam = christoffel(vel, vel, at=base)
        residual = max((gam.u1 - phi_tt).sup_norm(), (gam.u2 - alpha_tt).sup_norm())
        assert residual < 1e-6


def test_09_quotient_of_the_quadric():
    rng = np.random.default_rng(9)
    for n in (1, 2, 3):
        checked = 0
        while checked < 100:
            q = random_point(n, rng)
            a = random_horizontal(q, rng)
            if abs(fin_metric(a, a)) < 1e-2:
                continue
            assert abs(quotient_sec(a, j_action(a)) - 4.0) < 1e-10
            checked += 1

    for _ in range(60):
        q = random_point(1, rng)
        a, b = random_horizontal(q, rng), random_horizontal(q, rng)
        try:
            sec = quotient_sec(a, b)
        except DegeneratePlane:
            continue
        assert abs(sec - 4.0) < 1e-10

    assert any(abs(sec - 4.0) > 0.1 for _, _, sec in plane_scan(2))


def test_10_weak_residual_past_the_classical_clock():
    d = preset("fig1c")
    t_break_nearby = 0.5 * math.log(3.0)
    times = (0.5, 2.0, 5.0)
    assert any(t > t_break_nearby for t in times)
    for t in times:
        assert weak_residual(d, t) < 1e-5
