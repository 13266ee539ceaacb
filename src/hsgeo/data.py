"""Initial data for the two-component system: classification and presets.

The conserved quantity c = (1/4) int(u0x^2 + kappa rho0^2) dx splits data
into three classes (spacelike c > 0, lightlike c = 0, timelike c < 0).
The time-scaling symmetry u -> a u(a t, x) rescales c by a^2, so any
non-lightlike datum can be normalized to c in {1, -1}; every closed-form
solver in this package expects normalized data.
"""

from __future__ import annotations

import enum
import json
import math
from dataclasses import dataclass

import numpy as np

from .grid import EPS, Grid, GridFunction, antiderivative_from_zero, derivative, integrate

LIGHTLIKE_TOL = 1e-12
CLASS_TOL = 1e-9  # floor of the unit-class tolerance in _unit_class
DEFAULT_N = 256


class SolutionClass(enum.Enum):
    SPACELIKE = "spacelike"
    LIGHTLIKE = "lightlike"
    TIMELIKE = "timelike"


@dataclass(frozen=True)
class InitialData:
    """Datum (u0, rho0) with coupling sign kappa. u0 must vanish at x = 0."""

    u0: GridFunction
    rho0: GridFunction
    kappa: int = -1

    def __post_init__(self):
        if self.kappa not in (-1, 1):
            raise ValueError(f"kappa must be +-1, got {self.kappa}")
        if self.u0.grid != self.rho0.grid:
            raise ValueError("u0 and rho0 live on different grids")
        if abs(self.u0.values[0]) > 1e-9:
            raise ValueError(f"u0(0) = {self.u0.values[0]:.3e}, expected 0")

    @property
    def grid(self) -> Grid:
        return self.u0.grid

    @property
    def u0x(self) -> GridFunction:
        return derivative(self.u0)

    @classmethod
    def from_gradient(cls, u0x: GridFunction, rho0: GridFunction, kappa: int = -1) -> "InitialData":
        """Build from the velocity gradient; u0x must have zero mean."""
        if abs(integrate(u0x)) > 1e-10:
            raise ValueError("u0x must have zero mean for u0 to be periodic")
        return cls(antiderivative_from_zero(u0x), rho0, kappa)


@dataclass(frozen=True)
class Classification:
    """Casimir value, sign class and the normalizing scale factor."""

    c: float
    label: SolutionClass
    scale: float

    @property
    def normalized_c(self) -> int:
        """Exact Casimir of the rescaled datum: +1, 0 or -1."""
        return {
            SolutionClass.SPACELIKE: 1,
            SolutionClass.LIGHTLIKE: 0,
            SolutionClass.TIMELIKE: -1,
        }[self.label]


def casimir(d: InitialData) -> float:
    """c = (1/4) int(u0x^2 + kappa rho0^2) dx."""
    return _casimir(d, d.u0x.values)


def _casimir(d: InitialData, u0x: np.ndarray) -> float:
    """Casimir of d from the samples of its velocity gradient."""
    r0 = d.rho0.values
    return 0.25 * float((u0x * u0x + d.kappa * (r0 * r0)).mean())


def classify(d: InitialData) -> Classification:
    c = casimir(d)
    if abs(c) < LIGHTLIKE_TOL:
        return Classification(c, SolutionClass.LIGHTLIKE, 1.0)
    label = SolutionClass.SPACELIKE if c > 0 else SolutionClass.TIMELIKE
    return Classification(c, label, 1.0 / math.sqrt(abs(c)))


def normalize(d: InitialData) -> tuple[InitialData, Classification]:
    """Rescale the datum so its Casimir is exactly +1, 0 or -1.

    Returns the scaled datum together with the classification of the
    original one (the recorded scale maps solution times back:
    t_original = scale * t_normalized).
    """
    cls = classify(d)
    if cls.label is SolutionClass.LIGHTLIKE or cls.scale == 1.0:
        return d, cls
    a = cls.scale
    scaled = InitialData(d.u0 * a, d.rho0 * a, d.kappa)
    return scaled, cls


def _unit_class(d: InitialData, u0x: np.ndarray, c: float) -> int:
    """Class of data already scaled to c in {1, 0, -1}, from its Casimir c
    and the samples u0x of its velocity gradient; raises otherwise.

    c is a mean of terms of size (1/4) mean(u0x^2 + rho0^2) and carries
    their rounding, which exceeds any fixed tolerance on a nearly
    lightlike datum scaled up to |c| = 1; c is therefore matched within
    8 n eps (1/4) mean(u0x^2 + rho0^2), and never less than CLASS_TOL
    (the size is only summed when c misses CLASS_TOL).
    """
    target = min((1, 0, -1), key=lambda k: abs(c - k))
    miss = abs(c - target)
    r0 = d.rho0.values
    if miss <= CLASS_TOL or miss <= 2.0 * u0x.size * EPS * float((u0x * u0x + r0 * r0).mean()):
        return target
    raise ValueError(f"data is not normalized (c = {c:.6g}); call normalize() first")


# -- preset library ---------------------------------------------------------


def _two_pi(x):
    return 2.0 * np.pi * x


def _fig1a(grid: Grid) -> InitialData:
    u0x = grid.sample(lambda x: np.cos(_two_pi(x)))
    rho0 = grid.sample(lambda x: 3.0 * np.cos(_two_pi(x)))
    return InitialData.from_gradient(u0x, rho0)


def _fig1b(grid: Grid) -> InitialData:
    u0x = grid.sample(lambda x: np.cos(_two_pi(x)))
    rho0 = grid.constant(3.0 / math.sqrt(2.0))
    return InitialData.from_gradient(u0x, rho0)


def _fig1c(grid: Grid) -> InitialData:
    u0x = grid.sample(lambda x: np.cos(_two_pi(x)))
    rho0 = grid.sample(lambda x: np.cos(_two_pi(x)) + 2.0)
    return InitialData.from_gradient(u0x, rho0)


def _lightlike(grid: Grid) -> InitialData:
    u0x = grid.sample(lambda x: np.cos(_two_pi(x)))
    rho0 = grid.sample(lambda x: np.cos(_two_pi(x)))
    return InitialData.from_gradient(u0x, rho0)


def _spacelike(grid: Grid) -> InitialData:
    # cos(2 pi x) gradient with rho0 = 0 has c = 1/8; the amplitude
    # 2 sqrt(2) is that datum rescaled so c = 1 exactly.
    u0x = grid.sample(lambda x: 2.0 * math.sqrt(2.0) * np.cos(_two_pi(x)))
    return InitialData.from_gradient(u0x, grid.zero())


def _stationary(grid: Grid) -> InitialData:
    return InitialData(grid.zero(), grid.constant(2.0))


PRESETS = {
    "fig1a": _fig1a,
    "fig1b": _fig1b,
    "fig1c": _fig1c,
    "lightlike": _lightlike,
    "spacelike": _spacelike,
    "stationary": _stationary,
}

PRESET_NOTES = {
    "fig1a": "timelike, both components proportional to cos; breaks down at t = ln(3)/2",
    "fig1b": "timelike, constant density over a cosine gradient; finite-time breakdown",
    "fig1c": "timelike and admissible: the flow map stays non-degenerate for all time",
    "lightlike": "c = 0, equal components; every characteristic is borderline",
    "spacelike": "c = 1 (pre-scaled cosine gradient, zero density)",
    "stationary": "u = 0, rho = 2: fixed point of the weak flow with energy -4",
}


def preset(name: str, n: int = DEFAULT_N) -> InitialData:
    """Look up a named initial datum on an n-node grid."""
    try:
        builder = PRESETS[name]
    except KeyError:
        raise KeyError(f"unknown preset {name!r}; choose from {sorted(PRESETS)}") from None
    return builder(Grid(n))


# -- scenario descriptors ----------------------------------------------------

SCENARIO_SCHEMA = 1
_SCENARIO_KEYS = {"schema", "name", "preset", "u0x", "rho0", "kappa", "n", "times"}
_SERIES_KEYS = {"const", "cos", "sin"}


def _build_series(grid: Grid, series: dict, what: str) -> GridFunction:
    unknown = set(series) - _SERIES_KEYS
    if unknown:
        raise ValueError(f"{what}: unknown series keys {sorted(unknown)}")
    vals = np.full(grid.n, float(series.get("const", 0.0)))
    for kind in ("cos", "sin"):
        fn = np.cos if kind == "cos" else np.sin
        for mode, amp in series.get(kind, {}).items():
            m = int(mode)
            if not 1 <= m <= grid.n // 2 - 1:
                raise ValueError(f"{what}: mode {m} not resolvable on n = {grid.n}")
            vals = vals + float(amp) * fn(2.0 * np.pi * m * grid.x)
    return GridFunction(grid, vals)


def scenario_from_dict(doc: dict) -> tuple[InitialData, dict]:
    """Build an InitialData from a scenario descriptor.

    Returns the datum plus the descriptor's run settings (name, n, times).
    Unknown keys are rejected rather than ignored.
    """
    unknown = set(doc) - _SCENARIO_KEYS
    if unknown:
        raise ValueError(f"scenario: unknown keys {sorted(unknown)}")
    if doc.get("schema", SCENARIO_SCHEMA) != SCENARIO_SCHEMA:
        raise ValueError(f"scenario: unsupported schema {doc['schema']!r}")
    n = int(doc.get("n", DEFAULT_N))
    kappa = int(doc.get("kappa", -1))
    has_preset = "preset" in doc
    has_fields = "u0x" in doc or "rho0" in doc
    if has_preset == has_fields:
        raise ValueError("scenario: give either a preset name or explicit u0x/rho0 series")
    if has_preset:
        d = preset(doc["preset"], n)
        if kappa != d.kappa:
            d = InitialData(d.u0, d.rho0, kappa)
    else:
        grid = Grid(n)
        u0x = _build_series(grid, doc.get("u0x", {}), "u0x")
        if abs(float(doc.get("u0x", {}).get("const", 0.0))) > 0:
            raise ValueError("scenario: u0x must not contain a constant term")
        rho0 = _build_series(grid, doc.get("rho0", {}), "rho0")
        d = InitialData.from_gradient(u0x, rho0, kappa)
    meta = {
        "name": doc.get("name", doc.get("preset", "custom")),
        "n": n,
        "times": [float(t) for t in doc.get("times", [])],
    }
    return d, meta


def scenario_from_file(path) -> tuple[InitialData, dict]:
    with open(path) as fh:
        return scenario_from_dict(json.load(fh))
