"""Shared fixtures and hypothesis strategies for the test suite."""

import numpy as np
import pytest
from hypothesis import HealthCheck, settings
from hypothesis import strategies as st

from hsgeo import data, engine, sphere, weak
from hsgeo.grid import Grid, GridFunction

# a fixed seed and no example database: every run draws the same examples
settings.register_profile(
    "suite",
    max_examples=25,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")

N = 64
GRID = Grid(N)

coeff = st.floats(-2.0, 2.0, allow_nan=False, allow_infinity=False)


@st.composite
def mean_zero_trig(draw, modes=4):
    """Band-limited samples with exactly zero quadrature mean."""
    vals = np.zeros(N)
    for k in range(1, modes + 1):
        a, b = draw(coeff), draw(coeff)
        vals += (a / k) * np.sin(2 * np.pi * k * GRID.x)
        vals += (b / k) * np.cos(2 * np.pi * k * GRID.x)
    return GridFunction(GRID, vals)


@st.composite
def trig_with_const(draw, modes=4):
    """Band-limited samples with an arbitrary constant component."""
    base = draw(mean_zero_trig(modes=modes))
    return GridFunction(GRID, base.values + draw(coeff))


@st.composite
def chart_slot(draw, modes=4):
    """Band-limited samples vanishing at x = 0, the chart convention."""
    base = draw(mean_zero_trig(modes=modes))
    return GridFunction(GRID, base.values - base.values[0])


@pytest.fixture
def grid():
    return GRID


def rand_u1(g, rng, modes=8):
    """Velocity-slot sample: band-limited, vanishing at x = 0."""
    vals = np.zeros(g.n)
    for k in range(1, modes + 1):
        a, b = rng.standard_normal(2) / k
        vals += a * np.sin(2 * np.pi * k * g.x) + b * (np.cos(2 * np.pi * k * g.x) - 1.0)
    return GridFunction(g, vals)


def rand_u2(g, rng, modes=8, const=True):
    """Density-slot sample: band-limited, constant term optional."""
    vals = np.zeros(g.n)
    if const:
        vals += rng.standard_normal()
    for k in range(1, modes + 1):
        a, b = rng.standard_normal(2) / k
        vals += a * np.sin(2 * np.pi * k * g.x) + b * np.cos(2 * np.pi * k * g.x)
    return GridFunction(g, vals)


def count_work(monkeypatch):
    """Counters of the numpy FFT calls, the stencil passes of the
    nonuniform evaluator, the datum analyses and the Casimir evaluations
    of a run."""
    work = {"fft": 0, "passes": 0, "analyses": 0, "casimirs": 0}
    for name in ("fft", "ifft", "rfft", "irfft"):
        fn = getattr(np.fft, name)

        def counted_fft(*a, _fn=fn, **k):
            work["fft"] += 1
            return _fn(*a, **k)

        monkeypatch.setattr(np.fft, name, counted_fft)
    interpolant = engine._interpolant

    def counted_interpolant(*columns):
        at = interpolant(*columns)

        def counted_at(pts):
            work["passes"] += 1
            return at(pts)

        return counted_at

    monkeypatch.setattr(engine, "_interpolant", counted_interpolant)
    analysis = engine._analysis

    def counted_analysis(*a):
        work["analyses"] += 1
        return analysis(*a)

    for mod in (engine, sphere, weak):
        monkeypatch.setattr(mod, "_analysis", counted_analysis)
    kept = data.InitialData._casimir  # the cached property: its func runs once per datum
    casimir = kept.func

    def counted_casimir(d):
        work["casimirs"] += 1
        return casimir(d)

    monkeypatch.setattr(kept, "func", counted_casimir)
    return work
