"""Spectral primitives for real periodic functions on the unit circle.

Functions are sampled on the uniform grid x_j = j/n (period 1, n even).
Differentiation, antidifferentiation and quadrature are exact for
band-limited data, which is what every other module feeds in here.
"""

from __future__ import annotations

import functools
import os
from dataclasses import dataclass, field
from math import comb

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

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


def _interpolant(columns):
    """Evaluator of the trigonometric interpolants of sample columns of
    one grid, the rows of a (k, n) array or one (n,) array, at arbitrary
    points (a type-2 nonuniform FFT).

    The columns are oversampled together: one rfft of the stack, its
    spectra zero-padded to a grid OVERSAMPLE times finer, with the
    Nyquist coefficient split evenly between +-n/2 so the interpolant
    keeps its real cos(pi n y) term, and one irfft back. The returned
    function maps a 1-D array of P points to a (k, P) array of values,
    each by STENCIL-point barycentric Lagrange interpolation (Berrut and
    Trefethen, SIAM Rev. 2004) of the fine samples around the point,
    wrapped periodically; the stencil and its weights are shared by the
    columns, whose fine samples are read through a window view, with no
    index array. A point on a fine-grid node, or within 2^-60 fine steps
    of one, returns that node's sample; a non-finite point returns NaN.
    Building costs O(n log n) time per column and keeps
    k (OVERSAMPLE n + STENCIL) floats, twice that while the irfft runs;
    each evaluation O(STENCIL) time per point and column, and two
    (P, STENCIL) arrays.
    """
    cols = np.atleast_2d(columns)
    k, n = cols.shape
    m = OVERSAMPLE * n
    lead = STENCIL // 2 - 1
    c = np.fft.rfft(cols)
    c[:, -1] *= 0.5
    c *= OVERSAMPLE  # a power of two: as exact as scaling the fine samples
    g = np.fft.irfft(c, m)
    windows = sliding_window_view(np.concatenate([g[:, -lead:], g, g[:, : STENCIL - lead]], axis=1),
                                  STENCIL, axis=1)  # periodic wrap; (k, m + 1, STENCIL), a view

    def at(pts: np.ndarray) -> np.ndarray:
        s = pts * m
        base = np.floor(s)
        frac = s - base
        # that close to a node the interpolant moves by far less than a
        # rounding, while 1/dist could overflow. frac lies in [0, 1]: a
        # point just below a node can leave it at 1.0, the stencil's next
        # node. A non-finite point has frac NaN, reads node 0 and gets NaN.
        right = 1.0 - frac < 2.0**-60
        on = np.flatnonzero((frac < 2.0**-60) | right)
        right = right[on]
        frac[on] = 0.5
        q = frac[:, None] - _OFFSETS
        np.divide(_WEIGHTS, q, out=q)  # in place: one (P, STENCIL) array less
        q[on] = 0.0
        q[on, lead + right] = 1.0
        bad = np.isnan(frac)
        if bad.any():
            base[bad] = 0.0
        start = np.mod(base, m).astype(np.intp)
        out = np.empty((k, s.size))
        for row, win in zip(out, windows):
            np.einsum("ij,ij->i", q, win[start], out=row)
        out /= q.sum(axis=1)
        return out

    return at


def integrate(f: GridFunction) -> float:
    """Quadrature over one period (rectangle rule, spectrally exact)."""
    return float(f.values.mean())


def _demean(v: np.ndarray) -> np.ndarray:
    """Every sample row of v (the last axis) less its mean."""
    return v - v.mean(axis=-1, keepdims=True)


def mean_zero_project(f: GridFunction) -> GridFunction:
    """Remove the mean. Idempotent."""
    return GridFunction(f.grid, _demean(f.values))


@functools.lru_cache(maxsize=16)
def _ik(n: int, at: int, value: float) -> np.ndarray:
    """2 pi i k for the integer frequencies k = 0..n/2 of the real FFT,
    with the entry at index `at` replaced by `value`; read-only, and
    built once per variant for the 16 variants last used."""
    ik = 2j * np.pi * np.fft.rfftfreq(n, d=1.0 / n)
    ik[at] = value
    ik.setflags(write=False)
    return ik


def _derivative(v: np.ndarray) -> np.ndarray:
    """Spectral derivative of every sample row of v (the last axis)."""
    n = v.shape[-1]
    vh = np.fft.rfft(v)
    vh *= _ik(n, -1, 0.0)  # in place: one spectrum per row in flight, not two
    return np.fft.irfft(vh, n)


def _antiderivative(v: np.ndarray) -> np.ndarray:
    """Antiderivative from zero of every sample row of v (the last axis)."""
    n = v.shape[-1]
    fh = np.fft.rfft(v)
    mean = fh[..., :1].real / n
    fh[..., 0] = 0.0
    fh /= _ik(n, 0, 1.0)  # dummy 1 at k = 0, mode already zeroed
    fh[..., -1] = 0.0  # Nyquist antiderivative samples to zero on the nodes
    periodic = np.fft.irfft(fh, n)
    return periodic - periodic[..., :1] + mean * (np.arange(n) / n)


def _a_inverse(v: np.ndarray) -> np.ndarray:
    """Normalized inverse of -d2/dx2 on every zero-mean sample row of v."""
    n = v.shape[-1]
    first = _antiderivative(v)
    second = _antiderivative(first)
    return -second + (np.arange(n) / n) * first.mean(axis=-1, keepdims=True)


def derivative(f: GridFunction) -> GridFunction:
    """Spectral derivative. The Nyquist mode is annihilated to keep it real."""
    return GridFunction(f.grid, _derivative(f.values))


def antiderivative_from_zero(f: GridFunction) -> GridFunction:
    """Antiderivative F with F(0) = 0.

    The mean of f appears as a linear-in-x term, the rest is integrated
    spectrally, so F(x) - mean(f) * x is periodic.
    """
    return GridFunction(f.grid, _antiderivative(f.values))


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
    return GridFunction(f.grid, _a_inverse(f.values))


def write_table(path, header: str, columns) -> None:
    """Write equal-length columns as CSV under a header line, every value
    at 17 significant digits (round-trip exact), one format per table."""
    write_rows(path, table_template(header, columns[0], len(columns) - 1), columns[1:])


def table_template(header: str, first: np.ndarray, more: int) -> str:
    """Text of a CSV table under `header` whose first column is `first`,
    formatted here once, with `more` fields left open in every row.

    `write_rows` fills the open fields, so the tables of a run that share
    their first column (the grid nodes of every frame) format it once;
    the text is that of `write_table` on the full columns, byte for byte.
    """
    row = "%.17g" + ",%%.17g" * more + "\n"
    return header.replace("%", "%%") + "\n" + (row * first.size) % tuple(first.tolist())


def write_rows(path, template: str, columns) -> None:
    """Write a `table_template` with its open fields filled row by row
    from equal-length columns at 17 significant digits."""
    write_text(path, template % tuple(np.transpose(columns).ravel().tolist()))


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
