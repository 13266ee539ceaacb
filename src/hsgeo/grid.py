"""Spectral primitives for real periodic functions on the unit circle.

Functions are sampled on the uniform grid x_j = j/n (period 1, n even).
Differentiation, antidifferentiation and quadrature are exact for
band-limited data, which is what every other module feeds in here.
"""

from __future__ import annotations

import functools
import os
from dataclasses import dataclass, field
from math import comb, ldexp

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
    """Write equal-length columns as CSV under `header`, written as it
    is: row j holds value j of every column, each value the text of
    `'%.17g' % value` (round-trip exact).

    The rows are formatted TABLE_BLOCK values at a time (`_g17`): O(n)
    time and O(TABLE_BLOCK) memory per table, whatever its length.
    """
    cols = [np.asarray(col, dtype=float) for col in columns]
    if cols[0].ndim != 1 or any(col.shape != cols[0].shape for col in cols):
        raise ValueError("table columns must be 1-D and of equal length")
    _overwrite(path, _table_chunks(header, cols))


def _table_chunks(header: str, cols: list):
    """The header line, then the text of blocks of whole rows."""
    yield (header + "\n").encode()
    k, n = len(cols), cols[0].size
    rows = max(1, TABLE_BLOCK // k)
    block = np.empty((rows, k))
    seps = np.zeros((k, 8), np.uint8)
    seps[:, 5] = ord(",")
    seps[-1, 5] = ord("\n")
    seps = np.tile(_words(seps), rows)  # the separator word of every slot
    for r0 in range(0, n, rows):
        b = block[: min(rows, n - r0)]
        for j, col in enumerate(cols):
            b[:, j] = col[r0 : r0 + len(b)]
        yield _g17(b, seps)


# The %.17g writer. A finite x with 1e-278 <= |x| <= 1e278 is printed
# from D, the integer nearest |x| 10^(16 - k), k = floor(log10 |x|): when
# 10^16 < D < 10^17, D = d0 d1 ... d16 holds the 17 significant digits
# of x, X = k is its exponent and s the number of digits left once the
# trailing zeros of D are cut. C's %.17g then prints
#
#   d0..dX[.d(X+1)..d(s-1)]       0 <= X <= 16
#   0.{-X-1 zeros}d0..d(s-1)      -4 <= X < 0
#   d0[.d1..d(s-1)]e+-XX[X]       otherwise
#
# with a leading - for negative x. Each of these texts, with the
# separator after it, is a subsequence of one 48-byte slot of six 8-byte
# words read from tables:
#
#   word 0      - 0 . 0 0 0 d0 .      sign, the zeros of 0.000d, d0
#   words 1-4   d . d . d . d .       d1..d16, four digits a word
#   word 5      e +- h t u sep 0 0    exponent, then the separator
#
# A word mask looked up by (exponent class, sign, trailing zeros of D)
# zeroes the bytes the text does not use, and deleting the zero bytes of
# a block of slots leaves its CSV text. Other values (zeros, non-finite
# and out-of-range values, D outside (10^16, 10^17) where k was misread
# or the digits carry into the next decade, and a rounding within 2^-30
# of a half) are formatted by '%.17g' and set into their slots as they
# are.
TABLE_BLOCK = 1024  # values formatted at once by write_table
_KMIN, _KMAX = -280, 280  # the decades k of the table of powers of ten
_SPLIT = 134217729.0  # 2^27 + 1, Veltkamp's splitter
_SLOW = 2 * 23 * 17  # the keep masks of a text set into its slot as it is


def _split(a):
    """Halves of the doubles a, of at most 26 significant bits each, that
    sum to a exactly (Veltkamp; Dekker, Numer. Math. 1971)."""
    c = a * _SPLIT
    hi = c - (c - a)
    return hi, a - hi


def _two_product(a, b, bh, bl):
    """fl(a b) and its rounding error a b - fl(a b), exactly, from the
    halves bh, bl of b (Dekker's product, without a fused multiply-add)."""
    ah, al = _split(a)
    p = a * b
    err = ah * bh - p
    err += ah * bl
    err += al * bh
    err += al * bl
    return p, err


def _words(chars) -> np.ndarray:
    """The rows of 8 characters (byte values) in chars as 8-byte words."""
    return np.ascontiguousarray(chars, dtype=np.uint8).view(np.uint64)[..., 0]


def _digits(v, width: int) -> np.ndarray:
    """The characters of the last `width` decimal digits of integers v."""
    return v[..., None] // 10 ** np.arange(width - 1, -1, -1) % 10 + ord("0")


@functools.cache
def _g17_tables():
    """The writer's read-only tables, built once, on first use.

    - per decade k in [_KMIN, _KMAX], 10^(16 - k) as a double-double
      ph + pl, with ph split into halves bh + bl: the product of an exact
      double-double 10^(22 j) and an exact double 10^r, with a relative
      error below 2^-104, so that y + err in `_g17` is off by less than
      2^-45 from |x| 10^(16 - k) < 2^57;
    - the slot words: words 1-4 for 0..9999, words 0 for d0 at 10^4 + d0
      and words 5 for k at 10010 + k - _KMIN;
    - the trailing zeros of 0..9999, 4 for 0;
    - per decade, the first keep mask of its class;
    - the keep masks, as words: one per (class, sign, trailing zeros of
      D), then one per length of a text set into its slot as it is.
    """
    m = 16 - np.arange(_KMIN, _KMAX + 1)
    j, r = np.divmod(m, 22)
    coarse = []
    for e in range(22 * j.min(), 22 * j.max() + 1, 22):
        if e >= 0:
            q, shift = 10**e, 0
        else:  # 2^shift / 10^-e to over 130 bits
            shift = 130 - 4 * e
            q = (1 << shift) // 10**-e
        hi = float(q)
        coarse.append((ldexp(hi, -shift), ldexp(float(q - int(hi)), -shift)))
    ch, cl = np.array(coarse)[j - j.min()].T
    fine = np.array([float(10**i) for i in range(22)])[r]
    ph, pl = _two_product(ch, fine, *_split(fine))
    pl += cl * fine
    bh, bl = _split(ph)

    v, x = np.arange(10**4), np.arange(_KMIN, _KMAX + 1)
    pairs = np.full((10**4, 8), ord("."), np.uint8)
    pairs[:, ::2] = _digits(v, 4)
    lead = np.full((10, 8), ord("."), np.uint8)
    lead[:, :6] = np.frombuffer(b"-0.000", np.uint8)
    lead[:, 6] = _digits(np.arange(10), 1)[:, 0]
    expo = np.zeros((x.size, 8), np.uint8)
    expo[:, :2] = np.where(x < 0, ord("-"), ord("+"))[:, None]
    expo[:, 0] = ord("e")
    expo[:, 2:5] = _digits(np.abs(x), 3)
    tz = sum(v % 10**i == 0 for i in range(1, 5)).astype(np.uint8)
    cls = np.where((-4 <= x) & (x <= 16), x + 4, np.where(np.abs(x) < 100, 21, 22))

    # byte p of the slot of mask (c, neg, t): class c is X + 4 for the
    # fixed-point X, 21 and 22 for 2- and 3-digit exponents; s = 17 - t
    c, neg, t = (a.reshape(-1, 1) for a in np.indices((23, 2, 17)))
    X, s, p = c - 4, 17 - t, np.arange(48)
    digit = (p - 6) // 2  # of the digit at p, or of the one before the point at p
    fixed, sci = (c <= 20) & (X >= 0), c >= 21
    point = np.where(fixed, X, np.where(sci, 0, 99))  # the digit a point may follow
    keep = ((p == 0) & (neg == 1)) | (p == 45)
    keep |= (p >= 6) & (p % 2 == 0) & (digit < np.where(fixed, np.maximum(s, X + 1), s))
    keep |= (p % 2 == 1) & (digit == point) & (s > point + 1)
    keep |= (c < 4) & (1 <= p) & (p <= 1 - X)
    keep |= sci & np.isin(p, [40, 41, 43, 44]) | (c == 22) & (p == 42)
    keep = np.concatenate([keep, (p < np.arange(25)[:, None]) | (p == 45)])

    tables = (ph, bh, bl, pl, _words(np.concatenate([pairs, lead, expo])), tz,
              cls * 34, _words(keep.reshape(-1, 6, 8) * np.uint8(255)))
    for a in tables:
        a.setflags(write=False)
    return tables


_WORD_AT = np.array([10**4, 0, 0, 0, 0, 10010])  # where each slot word's table starts


def _g17(block: np.ndarray, seps: np.ndarray) -> bytes:
    """CSV text of a (rows, k) block of values, each formatted as by
    `'%.17g'` and followed by its separator in `seps` (rows k words).

    O(rows k) time; about 130 bytes per value in flight.
    """
    ph, bh, bl, pl, words, tzs, cls, keep = _g17_tables()
    x = block.ravel()
    a = np.abs(x)
    fast = (a >= 1e-278) & (a <= 1e278)  # nan is not
    a[~fast] = 1.0
    k = np.floor(np.log10(a)).astype(np.intp)
    k -= _KMIN
    y, err = _two_product(a, ph[k], bh[k], bl[k])  # |x| 10^(16 - k) = y + err
    err += a * pl[k]  # y + err: |x| 10^(16 - k) to 2^-45
    del a
    d = np.rint(err)
    err -= d
    d = d.astype(np.int64)
    d += y.astype(np.int64)  # y >= 2^53 is an integer where k is right
    fast &= np.abs(err) < 0.5 - 2.0**-30
    fast &= (d > 10**16) & (d < 10**17)
    del y, err
    d[~fast] = 10**16 + 1  # any digits: the slot is set anew
    at = np.empty((6, x.size), np.intp)  # d0, the 4-digit groups of d1..d16, k
    for row, scale in zip(at, (10**16, 10**12, 10**8, 10**4)):
        np.floor_divide(d, scale, out=row)
        d -= row * scale
    at[4], at[5] = d, k
    tz = tzs.take(at[1])  # trailing zeros of D, from its first group on
    for g in at[2:5]:
        tz = np.where(g == 0, tz + 4, tzs.take(g))
    which = cls.take(k) + tz  # the keep mask of each value
    which += np.signbit(x) * 17
    del d, k, tz
    at += _WORD_AT[:, None]
    slots = np.empty((x.size, 6), np.uint64)
    slots.T[...] = words.take(at)
    del at
    slots[:, 5] |= seps[: x.size]
    if not fast.all():
        slow = np.flatnonzero(~fast)
        texts = ["%.17g" % v for v in x[slow].tolist()]
        chars = np.frombuffer("".join(t.ljust(24) for t in texts).encode(), np.uint8)
        slots.view(np.uint8)[slow, :24] = chars.reshape(-1, 24)
        which[slow] = _SLOW + np.array([len(t) for t in texts])
    slots &= keep.take(which, axis=0)
    text = slots.tobytes()
    del slots  # translate builds its output at the length of its input
    return text.translate(None, b"\0")


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
    _overwrite(path, [text.encode()])


def _overwrite(path, chunks) -> None:
    """Replace the contents of the file at `path` with the byte chunks,
    overwritten from its start and then cut to their length (`write_text`
    says why)."""
    with open(os.open(path, os.O_WRONLY | os.O_CREAT, 0o666), "wb") as fh:
        for chunk in chunks:
            fh.write(chunk)
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
