"""Exact solutions used to check the benchmark's outputs.

Nothing here imports hsgeo: every value comes from the closed-form flow
map of a data family, inverted node by node by bisection, or from the
analytic breakdown clock of a one-parameter family.
"""

import math

import numpy as np

TWO_PI = 2.0 * math.pi


def invert(phi, y: np.ndarray, reach: float, iters: int = 100) -> np.ndarray:
    """Labels x with phi(x) = y, for a nondecreasing phi with |phi(x) - x| <= reach.

    Plain bisection on [y - reach, y + reach]; it stops when the bracket
    no longer shrinks in floating point.
    """
    lo = y - reach - 1e-15
    hi = y + reach + 1e-15
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if np.array_equal(mid, lo) or np.array_equal(mid, hi):
            break
        right = phi(mid) >= y
        hi = np.where(right, mid, hi)
        lo = np.where(right, lo, mid)
    return 0.5 * (lo + hi)


def cosine_family(a: float, t: float, y: np.ndarray):
    """Weak flow of u0x = a cos 2 pi x, rho0 = a cos 2 pi x + 2 (c = -1).

    The q-branch slope is identically zero, so the flow map is
    phi = x + (1 - e^{-2t}) a sin(2 pi x) / (4 pi) for every t >= 0, and
    u(t, phi) = e^{-2t} a sin(2 pi x) / (2 pi), rho(t, phi) = rho0 / phi_x.

    Returns (u, rho) at the Eulerian points y and (ux_along_flow, phi_x)
    at the labels y.
    """
    em = math.exp(-2.0 * t)
    amp = (1.0 - em) * a / (2.0 * TWO_PI)
    x = invert(lambda s: s + amp * np.sin(TWO_PI * s), y, abs(amp))
    cos_x = np.cos(TWO_PI * x)
    u = em * a * np.sin(TWO_PI * x) / TWO_PI
    rho = (a * cos_x + 2.0) / (1.0 + (1.0 - em) * 0.5 * a * cos_x)
    cos_y = np.cos(TWO_PI * y)
    phi_x = 1.0 + (1.0 - em) * 0.5 * a * cos_y
    return u, rho, em * a * cos_y / phi_x, phi_x


def lightlike(t: float, y: np.ndarray):
    """Classical flow of u0x = rho0 = cos 2 pi x (c = 0), valid for t < 1.

    phi = x + t sin(2 pi x) / (2 pi), u(t, phi) = sin(2 pi x) / (2 pi),
    rho(t, phi) = cos(2 pi x) / (1 + t cos 2 pi x).
    """
    amp = t / TWO_PI
    x = invert(lambda s: s + amp * np.sin(TWO_PI * s), y, abs(amp))
    cos_x = np.cos(TWO_PI * x)
    return np.sin(TWO_PI * x) / TWO_PI, cos_x / (1.0 + t * cos_x)


def amplitude_clock(r: float) -> tuple[float, float]:
    """Breakdown clock of u0x = cos 2 pi x, rho0 = r cos 2 pi x.

    Returns (T*, scale): T* in the time of the unscaled datum and the
    factor that maps the normalized clock onto it, T* = scale * T_unit.
    """
    c = (1.0 - r * r) / 8.0
    if c == 0.0:
        return 1.0, 1.0
    big_a = abs(c) ** -0.5
    z = -big_a * (1.0 + r)
    if c > 0.0:
        return big_a * (0.5 * math.pi + math.atan(0.5 * z)), big_a
    return 0.5 * big_a * math.log((z - 2.0) / (z + 2.0)), big_a


def shift_clock(s: float) -> tuple[float, float]:
    """Breakdown clock of u0x = cos 2 pi x, rho0 = cos 2 pi x + s, as (T*, scale)."""
    if s == 0.0:
        return 1.0, 1.0
    big_a = 2.0 / s
    if s >= 1.0:
        return math.inf, big_a
    z = 2.0 * (s - 2.0) / s
    return 0.5 * big_a * math.log((z - 2.0) / (z + 2.0)), big_a
