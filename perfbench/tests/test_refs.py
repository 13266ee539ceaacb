"""The benchmark's exact solutions, checked without hsgeo.

    python3 -m pytest perfbench/tests

The Eulerian fields must solve the two-component system (kappa = -1) in
the integrated form u_t + u u_y = (F - y mean f) / 2, F' = f = u_y^2 - rho^2,
F(0) = 0, and rho_t + (u rho)_y = 0; the clocks must match a brute-force
search for the first zero of the characteristic factors.
"""

import math
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
import refs  # noqa: E402


def _d(v: np.ndarray) -> np.ndarray:
    n = v.size
    k = 2j * np.pi * np.fft.rfftfreq(n, d=1.0 / n)
    k[-1] = 0.0
    return np.fft.irfft(k * np.fft.rfft(v), n)


def _cumint(v: np.ndarray) -> np.ndarray:
    n = v.size
    vh = np.fft.rfft(v)
    mean = vh[0].real / n
    vh[0] = 0.0
    k = 2j * np.pi * np.fft.rfftfreq(n, d=1.0 / n)
    k[0] = 1.0
    g = vh / k
    g[-1] = 0.0
    p = np.fft.irfft(g, n)
    return p - p[0] + mean * np.arange(n) / n


def _residuals(fields, t: float, n: int = 256, dt: float = 1e-5):
    y = np.arange(n) / n
    up, rp = fields(t + dt, y)
    um, rm = fields(t - dt, y)
    u, rho = fields(t, y)
    u_t = (up - um) / (2 * dt)
    rho_t = (rp - rm) / (2 * dt)
    uy = _d(u)
    f = uy**2 - rho**2
    rhs = 0.5 * (_cumint(f) - y * f.mean())
    return np.abs(u_t + u * uy - rhs).max(), np.abs(rho_t + _d(u * rho)).max()


def test_invert_hits_the_targets():
    y = np.linspace(-0.3, 1.3, 1001)
    x = refs.invert(lambda s: s + 0.1 * np.sin(2 * np.pi * s), y, 0.1)
    assert np.abs(x + 0.1 * np.sin(2 * np.pi * x) - y).max() < 1e-15


@pytest.mark.parametrize("a", [0.5, 1.0, 1.5])
def test_cosine_family_starts_from_its_data(a):
    y = np.arange(64) / 64
    u, rho, ux, phi_x = refs.cosine_family(a, 0.0, y)
    assert np.abs(u - a * np.sin(2 * np.pi * y) / (2 * np.pi)).max() < 1e-15
    assert np.abs(rho - (a * np.cos(2 * np.pi * y) + 2.0)).max() < 1e-14
    assert np.abs(ux - a * np.cos(2 * np.pi * y)).max() < 1e-15
    assert np.all(phi_x == 1.0)


@pytest.mark.parametrize("a,t", [(0.5, 0.4), (1.0, 0.7), (1.25, 2.0), (2.0, 0.3)])
def test_cosine_family_solves_the_system(a, t):
    res_u, res_rho = _residuals(lambda s, y: refs.cosine_family(a, s, y)[:2], t)
    assert res_u < 1e-6 and res_rho < 1e-6


@pytest.mark.parametrize("t", [0.2, 0.5])
def test_lightlike_solves_the_system(t):
    res_u, res_rho = _residuals(refs.lightlike, t)
    assert res_u < 1e-6 and res_rho < 1e-6


def test_cosine_family_conserves_mass_and_floors_phi_x():
    y = np.arange(2048) / 2048
    _, rho, _, phi_x = refs.cosine_family(2.0, 1.0, y)
    assert abs(rho.mean() - 2.0) < 1e-12
    assert abs(phi_x.min() - math.exp(-2.0)) < 1e-15


def _brute_clock(u0x, rho0) -> float:
    """First zero of w = a(t) + b(t) z / 2 over the nodes, by scan and bisection
    in t, for the datum normalized to c in {1, 0, -1}."""
    c = 0.25 * np.mean(u0x**2 - rho0**2)
    cn = 0 if abs(c) < 1e-13 else int(np.sign(c))
    scale = abs(c) ** -0.5 if cn else 1.0
    z = scale * np.concatenate([u0x + rho0, u0x - rho0])

    def w_min(t):
        if cn == 1:
            return np.min(np.cos(t) + 0.5 * z * np.sin(t))
        if cn == -1:
            return np.min(math.cosh(t) + 0.5 * z * math.sinh(t))
        return np.min(1.0 + 0.5 * z * t)

    t, step = 0.0, 1e-3
    while w_min(t + step) > 0.0:
        t += step
        if t > 50.0:
            return math.inf
    lo, hi = t, t + step
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        lo, hi = (lo, mid) if w_min(mid) <= 0.0 else (mid, hi)
    return scale * hi


_X = np.arange(4000) / 4000  # contains x = 1/2, where the cosines are most negative
_COS = np.cos(2 * np.pi * _X)


@pytest.mark.parametrize("r", [0.0, 0.4, 1.0, 1.3, 2.2, 3.0])
def test_amplitude_clock_matches_brute_force(r):
    t_ref, _ = refs.amplitude_clock(r)
    assert abs(_brute_clock(_COS, r * _COS) - t_ref) <= 1e-9 * t_ref


@pytest.mark.parametrize("s", [0.0, 0.3, 0.75, 0.95])
def test_shift_clock_matches_brute_force(s):
    t_ref, _ = refs.shift_clock(s)
    assert abs(_brute_clock(_COS, _COS + s) - t_ref) <= 1e-9 * t_ref


def test_clocks_at_known_points_and_edges():
    assert refs.amplitude_clock(3.0)[0] == pytest.approx(0.5 * math.log(3.0), rel=1e-15)
    spacelike = 2 * math.sqrt(2) * (0.5 * math.pi - math.atan(math.sqrt(2)))
    assert refs.amplitude_clock(0.0)[0] == pytest.approx(spacelike, rel=1e-15)
    for eps in (1e-4, -1e-4):
        assert refs.amplitude_clock(1.0 + eps)[0] == pytest.approx(1.0, abs=1e-3)
    assert refs.shift_clock(1e-6)[0] == pytest.approx(1.0, abs=1e-5)
    assert refs.shift_clock(1.0 - 1e-9)[0] > 20.0
    assert all(math.isinf(refs.shift_clock(s)[0]) for s in (1.0, 1.7, 2.5))
