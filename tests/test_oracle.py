"""Method-of-lines reference integrator and cross-engine comparisons."""

import numpy as np
import pytest

from hsgeo.data import PRESETS, casimir, preset
from hsgeo.engine import blowup_time, eulerian_solution
from hsgeo.errors import StepUnstable
from hsgeo.grid import Grid, a_inverse, derivative, integrate
from hsgeo.oracle import OracleConfig, _march, compare, evolve, rhs
from conftest import GRID
from test_engine import _positive_kappa_data

CFG = OracleConfig(n=256, dt=1e-3)


def test_config_caps_the_step():
    with pytest.raises(ValueError):
        OracleConfig(n=256, dt=3e-3)
    with pytest.raises(ValueError):
        OracleConfig(n=256, dt=0.0)


def test_rhs_fixed_points():
    ut, rt = rhs(GRID.zero(), GRID.constant(2.0), -1)
    assert max(ut.sup_norm(), rt.sup_norm()) < 1e-13
    ut, rt = rhs(GRID.zero(), GRID.zero(), -1)
    assert max(ut.sup_norm(), rt.sup_norm()) < 1e-15


def test_rhs_reduces_to_the_scalar_equation():
    u = GRID.sample(lambda x: np.sin(2 * np.pi * x) / 10)
    ut, rt = rhs(u, GRID.zero(), -1)
    ux = derivative(u)
    scalar = -u * ux - 0.5 * a_inverse(derivative(ux * ux))
    assert (ut - scalar).sup_norm() < 1e-13
    assert rt.sup_norm() < 1e-15


def _reference_rhs(u, rho, kappa, dealias):
    """The right-hand side composed from the grid primitives: the 2/3
    rule filters each product in physical space, then
    u_t = -u u_x - 1/2 A^{-1} d/dx (u_x^2 + kappa rho^2) and
    rho_t = -(u rho)_x, at 16 FFTs per call."""
    gr = u.grid
    mask = np.fft.rfftfreq(gr.n, d=1.0 / gr.n) <= gr.n / 3.0

    def filtered(vals):
        return gr.function(np.fft.irfft(np.fft.rfft(vals) * mask, gr.n) if dealias else vals)

    ux = derivative(u)
    quad = filtered(ux.values**2 + kappa * rho.values**2)
    adv = filtered(u.values * ux.values)
    flux = filtered(u.values * rho.values)
    return -adv - 0.5 * a_inverse(derivative(quad)), -derivative(flux)


def _band_limited(gr, rng, top):
    c = np.zeros(gr.n // 2 + 1, dtype=complex)
    c[1 : top + 1] = rng.standard_normal(top) + 1j * rng.standard_normal(top)
    return gr.function(np.fft.irfft(c, gr.n))


@pytest.mark.parametrize("n", [8, 64, 256, 1024])
def test_rhs_matches_the_reference_composition(n):
    gr = Grid(n)
    rng = np.random.default_rng(n)
    fields = [(d.u0, d.rho0) for d in (preset(name, n) for name in sorted(PRESETS))]
    for top in (n // 2, n // 8) * 2:
        u, rho = _band_limited(gr, rng, top), _band_limited(gr, rng, top)
        fields.append((u / derivative(u).sup_norm(), rho / rho.sup_norm() + rng.standard_normal()))
    for u, rho in fields:
        for kappa in (-1, 1):
            for dealias in (True, False):
                got = rhs(u, rho, kappa, dealias)
                want = _reference_rhs(u, rho, kappa, dealias)
                for g, w in zip(got, want):
                    assert (g - w).sup_norm() <= 1e-12 * w.sup_norm()


def test_march_refuses_non_finite_fields():
    # products of 1e160 samples overflow: the first stage turns the fields
    # into inf and NaN, whose sup-norm compares false against any bound
    d = preset("fig1c")
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(StepUnstable):
        _march(d, 0.0, CFG.dt, 1e160 * d.u0.values, 1e160 * d.rho0.values, CFG)


def test_time_stepper_matches_the_closed_forms():
    for name in ("fig1c", "lightlike", "spacelike"):
        d = preset(name)
        uo, ro = evolve(d, 0.3, CFG)
        ue, re = eulerian_solution(d, 0.3)
        assert max((uo - ue).l2_norm(), (ro - re).l2_norm()) < 1e-6


def test_conserved_class_under_time_stepping():
    for name in ("fig1c", "lightlike", "spacelike"):
        d = preset(name)
        uo, ro = evolve(d, 0.3, CFG)
        ux = derivative(uo)
        drift = abs(0.25 * integrate(ux * ux + d.kappa * ro * ro) - casimir(d))
        assert drift < 1e-8


def test_positive_kappa_engine_against_the_stepper():
    d = _positive_kappa_data()
    cfg = OracleConfig(n=64, dt=1e-3)
    uo, ro = evolve(d, 0.3, cfg)
    ue, re = eulerian_solution(d, 0.3)
    assert max((uo - ue).l2_norm(), (ro - re).l2_norm()) < 1e-6


def test_density_mass_and_momentum_survive():
    d = preset("fig1c")
    uo, ro = evolve(d, 0.5, CFG)
    assert abs(integrate(ro) - integrate(d.rho0)) < 1e-12
    assert abs(integrate(uo) - integrate(d.u0)) < 1e-8


def test_fourth_order_in_time():
    d = preset("fig1a")
    ur, rr = evolve(d, 0.2, OracleConfig(n=256, dt=1e-4))
    errs = []
    for dt in (1.6e-3, 8e-4):
        uo, ro = evolve(d, 0.2, OracleConfig(n=256, dt=dt))
        errs.append(max((uo - ur).l2_norm(), (ro - rr).l2_norm()))
    ratio = errs[0] / errs[1]
    assert 10.0 < ratio < 22.0


def test_compare_report_shape():
    d = preset("fig1a")
    tstar = blowup_time(d)
    rep = compare(d, [0.1, 0.3, 0.5 * tstar], CFG)
    assert rep["schema"] == 1
    assert len(rep["rows"]) == 3
    worst = max(max(r["l2_u"], r["l2_rho"]) for r in rep["rows"])
    assert rep["max_l2"] == worst
    assert worst < 1e-5


def test_stepper_refuses_to_graze_the_breakdown():
    d = preset("fig1a")
    with pytest.raises(ValueError):
        evolve(d, blowup_time(d) - 0.01, CFG)
