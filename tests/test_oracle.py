"""Method-of-lines reference integrator and cross-engine comparisons."""

import json
import math

import numpy as np
import pytest

from hsgeo.data import PRESETS, InitialData, casimir, normalize, preset
from hsgeo.engine import blowup_time, eulerian_solution
from hsgeo.errors import StepUnstable
from hsgeo.grid import Grid, a_inverse, derivative, integrate
from hsgeo import oracle
from hsgeo.cli import main
from hsgeo.oracle import OracleConfig, _march, compare, evolve, rhs
from conftest import GRID, count_work
from test_engine import _positive_kappa_data

CFG = OracleConfig(dt=1e-3)


def test_config_caps_the_step():
    # the cap is 0.5/n on the datum's own grid
    with pytest.raises(ValueError, match="0.5/n"):
        evolve(preset("fig1c"), 0.1, OracleConfig(dt=3e-3))
    with pytest.raises(ValueError):
        OracleConfig(dt=0.0)
    u, rho = evolve(preset("fig1c", 64), 0.01)
    assert u.grid.n == 64


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


def _reference_kernel(n, kappa, dealias):
    """The right-hand side on sample arrays at seven FFT calls, one per
    transform: u, u_x, the three products, u_t and rho_t, none of them
    stacked."""
    k = np.fft.rfftfreq(n, d=1.0 / n)
    ik = 2j * np.pi * k
    ik[-1] = 0.0
    mask = (k <= n / 3.0) if dealias else np.ones(k.size)
    half = np.zeros(k.size, dtype=complex)
    half[1:-1] = 0.5 * mask[1:-1] / ik[1:-1]
    flux = -ik * mask

    def f(u, rho):
        ux = np.fft.irfft(ik * np.fft.rfft(u), n)
        ph = half * np.fft.rfft(ux * ux + kappa * (rho * rho))
        p0 = 2.0 * ph.real.sum() / n
        ut = np.fft.irfft(ph - mask * np.fft.rfft(u * ux), n) - p0
        return ut, np.fft.irfft(flux * np.fft.rfft(u * rho), n)

    return f


def _reference_march(d, t1, cfg):
    """RK4 from 0 to t1 on sample arrays with the unstacked kernel: full
    steps of cfg.dt, then the remainder step."""
    f = _reference_kernel(d.grid.n, d.kappa, cfg.dealias)
    nfull = int(np.floor(t1 / cfg.dt + 1e-12))
    rem = t1 - nfull * cfg.dt
    u, rho = d.u0.values, d.rho0.values
    for dt in [cfg.dt] * nfull + ([rem] if rem > 1e-12 else []):
        k1u, k1r = f(u, rho)
        k2u, k2r = f(u + 0.5 * dt * k1u, rho + 0.5 * dt * k1r)
        k3u, k3r = f(u + 0.5 * dt * k2u, rho + 0.5 * dt * k2r)
        k4u, k4r = f(u + dt * k3u, rho + dt * k3r)
        u = u + (dt / 6.0) * (k1u + 2.0 * k2u + 2.0 * k3u + k4u)
        rho = rho + (dt / 6.0) * (k1r + 2.0 * k2r + 2.0 * k3r + k4r)
    return u, rho


@pytest.mark.parametrize("name", ["lightlike", "fig1c", "fig1a"])
@pytest.mark.parametrize("n", [64, 256])
def test_march_equals_the_unstacked_reference_kernel(name, n):
    # the march on spectra agrees with the sample-space march up to the
    # rounding of the two representations (at most 1.9e-14 measured)
    d = preset(name, n)
    for kappa, dealias in ((-1, True), (-1, False), (1, True)):
        if kappa != d.kappa:
            d = normalize(InitialData(d.u0, d.rho0, kappa))[0]
        cfg = OracleConfig(dt=0.5 / n, dealias=dealias)
        got = _march(d, 0.0, 0.3, d.u0.values, d.rho0.values, cfg)
        want = _reference_march(d, 0.3, cfg)
        for g, w in zip(got, want):
            assert np.abs(g - w).max() <= 1e-13 * np.abs(w).max()


def test_kernel_makes_two_fft_calls(monkeypatch):
    d = preset("fig1c", 64)
    f = oracle._kernel(64, -1, True)
    s = np.fft.rfft(np.stack((d.u0.values, d.rho0.values)))
    calls = []
    for name in ("rfft", "irfft"):
        fn = getattr(np.fft, name)
        monkeypatch.setattr(np.fft, name, lambda *a, _fn=fn, **k: calls.append(1) or _fn(*a, **k))
    f(s)
    assert len(calls) == 2
    # k full steps: 4 stages of 2 calls, one rfft in and one irfft out
    cfg = OracleConfig(dt=1 / 128)
    for k in (0, 1, 3):
        calls.clear()
        _march(d, 0.0, k / 128, d.u0.values, d.rho0.values, cfg)
        assert len(calls) == 8 * k + 2


def test_march_refuses_non_finite_fields(monkeypatch):
    # products of 1e160 samples overflow: the first stage turns the fields
    # into inf and NaN, whose sup-norm compares false against any bound,
    # an infinite one included
    monkeypatch.setattr(oracle, "SUP_LIMIT", math.inf)
    d = preset("fig1c")
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(StepUnstable):
        _march(d, 0.0, CFG.dt, 1e160 * d.u0.values, 1e160 * d.rho0.values, CFG)


def test_march_checks_every_state(monkeypatch):
    # the start and each step's state, on the samples that stage 1 of the
    # next step makes, then the last state after the closing irfft
    d = preset("lightlike", 64)
    cfg = OracleConfig(dt=1 / 128)
    want = [np.abs(_march(d, 0.0, k / 128, d.u0.values, d.rho0.values, cfg)[1]).max()
            for k in range(4)]
    seen = []
    monkeypatch.setattr(oracle, "_bounded", lambda u, rho: seen.append(np.abs(rho).max()))
    _march(d, 0.0, 3 / 128, d.u0.values, d.rho0.values, cfg)
    assert len(seen) == 4
    np.testing.assert_allclose(seen, want, rtol=1e-13)


def test_march_checks_its_last_state(monkeypatch):
    # rho of the lightlike datum grows at every step: a bound between the
    # state before the last step and the state after it passes the march
    # that stops one step short and refuses the full march
    d = preset("lightlike", 64)
    cfg = OracleConfig(dt=1 / 128)

    def sup(t):
        return max(np.abs(v).max() for v in _march(d, 0.0, t, d.u0.values, d.rho0.values, cfg))

    before, after = sup(2 / 128), sup(3 / 128)
    assert before < after
    monkeypatch.setattr(oracle, "SUP_LIMIT", 0.5 * (before + after))
    _march(d, 0.0, 2 / 128, d.u0.values, d.rho0.values, cfg)
    with pytest.raises(StepUnstable):
        _march(d, 0.0, 3 / 128, d.u0.values, d.rho0.values, cfg)


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
    cfg = OracleConfig(dt=1e-3)
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
    ur, rr = evolve(d, 0.2, OracleConfig(dt=1e-4))
    errs = []
    for dt in (1.6e-3, 8e-4):
        uo, ro = evolve(d, 0.2, OracleConfig(dt=dt))
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


def test_compare_analyses_its_datum_once(monkeypatch, capsys):
    # the clock and every closed-form frame are read off one flow (4
    # analyses for 3 times when each frame and the clock took their own)
    work = count_work(monkeypatch)
    assert main(["compare", "--preset", "fig1c", "--n", "64", "--times", "0.1,0.2,0.3", "--json"]) == 0
    assert len(json.loads(capsys.readouterr().out)["rows"]) == 3
    assert work["analyses"] == 1


def test_stepper_refuses_to_graze_the_breakdown():
    d = preset("fig1a")
    with pytest.raises(ValueError):
        evolve(d, blowup_time(d) - 0.01, CFG)
