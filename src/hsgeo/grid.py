"""Spectral primitives for real periodic functions on the unit circle.

Functions are sampled on the uniform grid x_j = j/n (period 1, n even).
Differentiation, antidifferentiation and quadrature are exact for
band-limited data, which is what every other module feeds in here.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from math import comb

import numpy as np

from .errors import NonZeroMean

MEAN_TOL = 1e-10  # floor of the mean tolerance in a_inverse
EPS = float(np.finfo(float).eps)
OVERSAMPLE = 8  # fine-grid points per node in nonuniform evaluation
STENCIL = 16  # fine-grid nodes of each local interpolant
# stencil nodes relative to the fine node at or left of the point, and
# the barycentric weights of STENCIL equispaced nodes
_OFFSETS = np.arange(STENCIL) - (STENCIL // 2 - 1)
_WEIGHTS = np.array([(-1.0) ** j * comb(STENCIL - 1, j) for j in range(STENCIL)])


@dataclass(frozen=True)
class Grid:
    """Uniform periodic grid with n nodes on [0, 1)."""

    n: int

    def __post_init__(self):
        if self.n < 8 or self.n % 2 != 0:
            raise ValueError(f"grid size must be even and >= 8, got {self.n}")

    @property
    def x(self) -> np.ndarray:
        return np.arange(self.n) / self.n

    @property
    def h(self) -> float:
        return 1.0 / self.n

    def sample(self, fn) -> "GridFunction":
        """Sample a callable at the nodes."""
        return GridFunction(self, np.asarray(fn(self.x), dtype=float))

    def function(self, values) -> "GridFunction":
        return GridFunction(self, values)

    def zero(self) -> "GridFunction":
        return GridFunction(self, np.zeros(self.n))

    def constant(self, value: float) -> "GridFunction":
        return GridFunction(self, np.full(self.n, float(value)))


@dataclass(frozen=True)
class GridFunction:
    """Real function known by its samples on a periodic grid.

    Values are stored read-only; all operations return new instances.
    """

    grid: Grid
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        v = np.array(self.values, dtype=float)  # defensive copy
        if v.shape != (self.grid.n,):
            raise ValueError(f"expected {self.grid.n} samples, got shape {v.shape}")
        if not np.all(np.isfinite(v)):
            raise ValueError("samples must be finite")
        v.setflags(write=False)
        object.__setattr__(self, "values", v)

    # -- pointwise algebra ------------------------------------------------

    def _lift(self, other) -> np.ndarray:
        if isinstance(other, GridFunction):
            if other.grid != self.grid:
                raise ValueError("grid mismatch")
            return other.values
        return np.asarray(other, dtype=float)

    def __add__(self, other):
        return GridFunction(self.grid, self.values + self._lift(other))

    __radd__ = __add__

    def __sub__(self, other):
        return GridFunction(self.grid, self.values - self._lift(other))

    def __rsub__(self, other):
        return GridFunction(self.grid, self._lift(other) - self.values)

    def __mul__(self, other):
        return GridFunction(self.grid, self.values * self._lift(other))

    __rmul__ = __mul__

    def __truediv__(self, other):
        return GridFunction(self.grid, self.values / self._lift(other))

    def __neg__(self):
        return GridFunction(self.grid, -self.values)

    def __pow__(self, p):
        return GridFunction(self.grid, self.values**p)

    # -- reductions --------------------------------------------------------

    def min(self) -> float:
        return float(self.values.min())

    def max(self) -> float:
        return float(self.values.max())

    def sup_norm(self) -> float:
        return float(np.abs(self.values).max())

    def l2_norm(self) -> float:
        return float(np.sqrt(np.mean(self.values**2)))

    # -- nonuniform evaluation ----------------------------------------------

    def eval_at(self, pts) -> np.ndarray:
        """Evaluate the trigonometric interpolant at arbitrary points.

        Exact for band-limited data up to the rounding of the fast
        evaluator (`_interpolant`); points may lie outside [0, 1) since
        the interpolant is periodic. O(n log n + STENCIL len(pts)) time
        and O(n + STENCIL len(pts)) memory. A scalar point gives a float.
        """
        y = np.atleast_1d(np.asarray(pts, dtype=float))
        out = _interpolant(self.values)(y)[0]
        return out if np.ndim(pts) else float(out[0])


def _interpolant(*columns: np.ndarray):
    """Evaluator of the trigonometric interpolants of sample columns of
    one grid at arbitrary points (a type-2 nonuniform FFT).

    Each column is oversampled once: its rfft spectrum is zero-padded
    to a grid OVERSAMPLE times finer and brought back by one irfft,
    with the Nyquist coefficient split evenly between +-n/2 so the
    interpolant keeps its real cos(pi n y) term. The returned function
    maps a 1-D array of points to one array of values per column, each
    by STENCIL-point barycentric Lagrange interpolation (Berrut and
    Trefethen, SIAM Rev. 2004) of the fine samples around the point,
    wrapped periodically; the stencil and its weights are shared by the
    columns. A point on a fine-grid node, or within 2^-60 fine steps of
    one, returns that node's sample. Building costs O(n log n) per
    column, each evaluation O(STENCIL) per point and column.
    """
    m = OVERSAMPLE * columns[0].size
    lead = STENCIL // 2 - 1
    fine = []
    for v in columns:
        c = np.fft.rfft(v)
        c[-1] *= 0.5
        g = np.fft.irfft(c, m) * OVERSAMPLE
        fine.append(np.concatenate([g[-lead:], g, g[: STENCIL - lead]]))  # periodic wrap

    def at(pts: np.ndarray) -> list[np.ndarray]:
        s = pts * m
        base = np.floor(s)
        dist = (s - base)[:, None] - _OFFSETS
        # that close to a node the interpolant moves by far less than a
        # rounding, while 1/dist could overflow; rounding can leave
        # s - base at 1.0, so the whole stencil is searched. A non-finite
        # point gets index 0 and a NaN value.
        hit = np.abs(dist) < 2.0**-60
        node = hit.any(axis=1)
        dist[hit] = 1.0
        q = np.divide(_WEIGHTS, dist, out=dist)  # in place: one (len(pts), STENCIL) array less
        q[node] = hit[node]
        start = np.nan_to_num(np.mod(base, m)).astype(np.intp)
        idx = start[:, None] + np.arange(STENCIL)
        den = q.sum(axis=1)
        return [np.einsum("ij,ij->i", q, f[idx]) / den for f in fine]

    return at


def integrate(f: GridFunction) -> float:
    """Quadrature over one period (rectangle rule, spectrally exact)."""
    return float(f.values.mean())


def mean_zero_project(f: GridFunction) -> GridFunction:
    """Remove the mean. Idempotent."""
    return GridFunction(f.grid, f.values - f.values.mean())


def _wavenumbers(n: int) -> np.ndarray:
    # integer frequencies 0..n/2 of the real FFT
    return np.fft.rfftfreq(n, d=1.0 / n)


def derivative(f: GridFunction) -> GridFunction:
    """Spectral derivative. The Nyquist mode is annihilated to keep it real."""
    n = f.grid.n
    ik = 2j * np.pi * _wavenumbers(n)
    ik[-1] = 0.0
    return GridFunction(f.grid, np.fft.irfft(ik * np.fft.rfft(f.values), n))


def antiderivative_from_zero(f: GridFunction) -> GridFunction:
    """Antiderivative F with F(0) = 0.

    The mean of f appears as a linear-in-x term, the rest is integrated
    spectrally, so F(x) - mean(f) * x is periodic.
    """
    n = f.grid.n
    fh = np.fft.rfft(f.values)
    mean = fh[0].real / n
    fh[0] = 0.0
    ik = 2j * np.pi * _wavenumbers(n)
    ik[0] = 1.0  # dummy, mode already zeroed
    gh = fh / ik
    gh[-1] = 0.0  # Nyquist antiderivative samples to zero on the nodes
    periodic = np.fft.irfft(gh, n)
    vals = periodic - periodic[0] + mean * f.grid.x
    return GridFunction(f.grid, vals)


def a_inverse(f: GridFunction, demean: bool = False) -> GridFunction:
    """Invert the periodic operator -d2/dx2 with the normalization g(0) = 0.

    g(x) = -int_0^x int_0^y f dz dy + x * int_{S^1} int_0^y f dz dy.

    The input must have zero mean up to 8 n eps max|f|, and never less
    than MEAN_TOL: the spectral derivative of a periodic function leaves
    a rounding mean that grows with its size. Pass demean=True to
    project it first.
    """
    if demean:
        f = mean_zero_project(f)
    else:
        tol = max(MEAN_TOL, 8.0 * f.grid.n * EPS * f.sup_norm())
        if abs(integrate(f)) > tol:
            raise NonZeroMean(f"mean {integrate(f):.3e} exceeds {tol:.1e}")
    first = antiderivative_from_zero(f)
    second = antiderivative_from_zero(first)
    return GridFunction(f.grid, -second.values + f.grid.x * integrate(first))


def write_table(path, header: str, columns) -> None:
    """Write equal-length columns as CSV under a header line, every value
    at 17 significant digits (round-trip exact), one format per table."""
    table = np.column_stack(columns)
    rows, cols = table.shape
    line = ",".join(["%.17g"] * cols) + "\n"
    write_text(path, header + "\n" + (line * rows) % tuple(table.ravel().tolist()))


def write_text(path, text: str) -> None:
    """Replace the contents of the file at `path` with `text`.

    An existing file is overwritten from its start and then cut to the
    new length, instead of being truncated to zero first. On ext4 a
    file truncated to zero and written again is flushed to disk when it
    is closed (the auto_da_alloc heuristic), and truncating it again
    waits for pages still being written, so rewriting a run's tables
    into the same output directory waited on the disk. Five 512-row
    tables took 2.8 ms on average and up to 22 ms that way, and up to
    69 ms while another process kept the disk busy, against 0.18 ms and
    at most 3.2 ms overwritten in place (2-core VM, ext4 on a virtio
    disk).
    """
    with open(os.open(path, os.O_WRONLY | os.O_CREAT, 0o666), "wb") as fh:
        fh.write(text.encode())
        fh.truncate()


def write_csv(f: GridFunction, path) -> None:
    """Serialize as CSV with header ``x,value`` at 17 significant digits."""
    write_table(path, "x,value", [f.grid.x, f.values])


def read_csv(path) -> GridFunction:
    data = np.loadtxt(path, delimiter=",", skiprows=1)
    if data.ndim != 2 or data.shape[1] != 2:
        raise ValueError(f"expected two columns in {path}")
    n = data.shape[0]
    grid = Grid(n)
    if not np.allclose(data[:, 0], grid.x, atol=1e-12):
        raise ValueError("node column is not the uniform grid on [0, 1)")
    return GridFunction(grid, data[:, 1])
