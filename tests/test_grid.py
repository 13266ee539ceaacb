"""Spectral primitives: quadrature, differentiation, inversion, serialization."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from hsgeo.errors import NonZeroMean
from hsgeo.grid import (
    Grid,
    GridFunction,
    a_inverse,
    antiderivative_from_zero,
    derivative,
    integrate,
    mean_zero_project,
    read_csv,
    table_template,
    write_csv,
    write_rows,
    write_table,
    write_text,
)
from conftest import GRID, coeff, mean_zero_trig, trig_with_const


def _dense_eval(values, pts):
    """Trigonometric interpolant of the samples at the points, summed mode
    by mode: O(n) memory and time per point, the reference for eval_at.

    Each phase k y is reduced mod 1 exactly before it is scaled by 2 pi:
    y splits into a part on the 2^-40 grid, whose products with k <= n/2
    are exact, and a rest below 2^-41. Plain angles 2 pi k y would lose
    about n |y| eps, 1e-12 at n = 1024 and |y| = 3.
    """
    n = values.size
    y = np.atleast_1d(np.asarray(pts, dtype=float))
    c = np.fft.rfft(values) / n
    c[1 : n // 2] *= 2.0
    c[n // 2] = c[n // 2].real
    k = np.arange(n // 2 + 1)
    hi = np.round(y * 2.0**40) / 2.0**40
    phase = np.outer(hi, k)
    phase = phase - np.floor(phase) + np.outer(y - hi, k)
    return np.cos(2.0 * np.pi * phase) @ c.real - np.sin(2.0 * np.pi * phase) @ c.imag


@st.composite
def spectra_and_points(draw):
    """Samples of a random spectrum up to and including the Nyquist mode,
    with its coefficient l1 norm, and points in [-2, 3]: random ones, the
    grid nodes shifted by whole periods, and one drawn scalar."""
    n = draw(st.sampled_from([8, 64, 256, 1024]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    c = rng.standard_normal(n // 2 + 1) + 1j * rng.standard_normal(n // 2 + 1)
    c *= draw(st.floats(0.0, 1.0))
    c[-2] += complex(draw(coeff), draw(coeff))
    c[-1] = draw(coeff)
    values = np.fft.irfft(c, n)
    ch = np.fft.rfft(values) / n
    l1 = abs(ch[0]) + 2.0 * np.abs(ch[1:-1]).sum() + abs(ch[-1])
    pts = np.concatenate([rng.uniform(-2.0, 3.0, 64), np.arange(n) / n + rng.integers(-2, 3, n)])
    return Grid(n).function(values), l1, pts, draw(st.floats(-2.0, 3.0))


def test_grid_rejects_small_or_odd_sizes():
    with pytest.raises(ValueError):
        Grid(6)
    with pytest.raises(ValueError):
        Grid(33)


def test_values_are_read_only():
    f = GRID.constant(1.0)
    with pytest.raises(ValueError):
        f.values[0] = 2.0


def test_integrate_constant_is_identity():
    assert integrate(GRID.constant(1.0)) == 1.0


def test_integrate_harmonic_is_zero():
    f = GRID.sample(lambda x: np.cos(2 * np.pi * x))
    assert abs(integrate(f)) < 1e-15


def test_integrate_cos_squared_is_half():
    f = GRID.sample(lambda x: np.cos(2 * np.pi * x) ** 2)
    assert abs(integrate(f) - 0.5) < 1e-15


def test_derivative_of_sine():
    f = GRID.sample(lambda x: np.sin(2 * np.pi * x))
    expect = GRID.sample(lambda x: 2 * np.pi * np.cos(2 * np.pi * x))
    assert (derivative(f) - expect).sup_norm() < 1e-12


def test_derivative_of_constant_is_zero():
    assert derivative(GRID.constant(3.7)).sup_norm() < 1e-13


def test_derivative_second_harmonic():
    f = GRID.sample(lambda x: np.cos(4 * np.pi * x))
    expect = GRID.sample(lambda x: -4 * np.pi * np.sin(4 * np.pi * x))
    assert (derivative(f) - expect).sup_norm() < 1e-11


def test_antiderivative_of_one_is_x():
    F = antiderivative_from_zero(GRID.constant(1.0))
    assert np.abs(F.values - GRID.x).max() < 1e-13


def test_antiderivative_of_cosine():
    f = GRID.sample(lambda x: np.cos(2 * np.pi * x))
    expect = GRID.sample(lambda x: np.sin(2 * np.pi * x) / (2 * np.pi))
    assert (antiderivative_from_zero(f) - expect).sup_norm() < 1e-13


@given(mean_zero_trig())
def test_antiderivative_round_trip(f):
    F = antiderivative_from_zero(f)
    assert abs(F.values[0]) < 1e-14
    assert (derivative(F) - f).sup_norm() < 1e-10


def test_a_inverse_eigenfunction():
    f = GRID.sample(lambda x: np.sin(2 * np.pi * x))
    expect = GRID.sample(lambda x: np.sin(2 * np.pi * x) / (2 * np.pi) ** 2)
    assert (a_inverse(f) - expect).sup_norm() < 1e-14


def test_a_inverse_normalizes_at_zero():
    f = GRID.sample(lambda x: np.cos(2 * np.pi * x))
    expect = GRID.sample(lambda x: (np.cos(2 * np.pi * x) - 1.0) / (2 * np.pi) ** 2)
    assert (a_inverse(f) - expect).sup_norm() < 1e-14


def test_a_inverse_of_zero():
    assert a_inverse(GRID.zero()).sup_norm() == 0.0


def test_a_inverse_rejects_nonzero_mean():
    with pytest.raises(NonZeroMean):
        a_inverse(GRID.constant(1.0))
    assert a_inverse(GRID.constant(1.0), demean=True).sup_norm() == 0.0


def test_a_inverse_accepts_the_rounding_mean_of_a_large_derivative():
    # q = u_x^2 + rho^2 for u and rho with unit Fourier coefficients up to
    # Nyquist at n = 1024; q is periodic, so the mean of q' is rounding only,
    # but far above the absolute floor
    grid = Grid(1024)
    rng = np.random.default_rng(7)

    def field():
        c = np.exp(2j * np.pi * rng.uniform(size=grid.n // 2 + 1))
        c[0], c[-1] = 0.0, c[-1].real
        return grid.function(np.fft.irfft(c, grid.n) * (grid.n / 2))

    u, rho = field(), field()
    ux = derivative(u)
    f = derivative(ux * ux + rho * rho)
    assert abs(integrate(f)) > 1e-10
    g = a_inverse(f)
    assert (derivative(derivative(g)) + f).sup_norm() < 1e-12 * f.sup_norm()
    # the tolerance is 8 n eps max|f|, about 1.8e-12 max|f|: a mean 550 times that is refused
    with pytest.raises(NonZeroMean):
        a_inverse(f + 1e-9 * f.sup_norm())


@given(mean_zero_trig())
def test_a_inverse_solves_poisson(f):
    g = a_inverse(f)
    assert abs(g.values[0]) < 1e-13
    assert (derivative(derivative(g)) + f).sup_norm() < 1e-9


def test_mean_zero_project_kills_constants():
    assert mean_zero_project(GRID.constant(5.0)).sup_norm() == 0.0


def test_mean_zero_project_keeps_oscillation():
    f = GRID.sample(lambda x: 2.0 + np.sin(2 * np.pi * x))
    expect = GRID.sample(lambda x: np.sin(2 * np.pi * x))
    assert (mean_zero_project(f) - expect).sup_norm() < 1e-14


@given(trig_with_const())
def test_mean_zero_project_idempotent(f):
    p = mean_zero_project(f)
    assert abs(integrate(p)) < 1e-13
    assert (mean_zero_project(p) - p).sup_norm() < 1e-13


@given(trig_with_const())
def test_csv_round_trip(tmp_path_factory, f):
    path = tmp_path_factory.mktemp("csv") / "f.csv"
    write_csv(f, path)
    back = read_csv(path)
    assert back.grid.n == f.grid.n
    assert np.array_equal(back.values, f.values)


def test_csv_header(tmp_path):
    path = tmp_path / "f.csv"
    write_csv(GRID.constant(1.0), path)
    assert path.read_text().splitlines()[0] == "x,value"


def test_eval_at_reproduces_band_limited():
    f = GRID.sample(lambda x: np.sin(4 * np.pi * x) + 0.3 * np.cos(2 * np.pi * x))
    pts = np.array([0.05, 0.37, 0.81, 0.99])
    expect = np.sin(4 * np.pi * pts) + 0.3 * np.cos(2 * np.pi * pts)
    assert np.abs(f.eval_at(pts) - expect).max() < 1e-12


@given(spectra_and_points())
def test_eval_at_matches_the_dense_sum(case):
    f, l1, pts, y = case
    tol = 1e-12 * l1 + 1e-300  # the floor admits the granularity of subnormal spectra
    assert np.abs(f.eval_at(pts) - _dense_eval(f.values, pts)).max() <= tol
    got = f.eval_at(y)
    assert type(got) is float
    assert abs(got - _dense_eval(f.values, y)[0]) <= tol


def test_write_table_formats_like_per_value_fstrings(tmp_path):
    cols = [
        GRID.x[:5],
        np.array([-0.0, 5e-324, 1e300, -1.0 / 3.0, 2.5]),
        np.array([0.1, -1e-300, 7.0, np.pi, -2.0]),
    ]
    path = tmp_path / "t.csv"
    write_table(path, "x,a,b", cols)
    rows = "".join(",".join(f"{v:.17g}" for v in row) + "\n" for row in zip(*cols))
    assert path.read_bytes() == ("x,a,b\n" + rows).encode()


def test_row_template_writes_the_bytes_of_write_table(tmp_path):
    x = GRID.x
    cols = [np.sin(2 * np.pi * x), np.array([-0.0, 5e-324, 1e300] + [-1.0 / 3.0] * (GRID.n - 3))]
    write_table(tmp_path / "full.csv", "x,a%,b", [x, *cols])
    template = table_template("x,a%,b", x, 2)
    write_rows(tmp_path / "rows.csv", template, cols)
    assert (tmp_path / "rows.csv").read_bytes() == (tmp_path / "full.csv").read_bytes()
    write_rows(tmp_path / "rows.csv", template, cols[::-1])  # the template is reused as it is
    write_table(tmp_path / "full.csv", "x,a%,b", [x, *cols[::-1]])
    assert (tmp_path / "rows.csv").read_bytes() == (tmp_path / "full.csv").read_bytes()


def test_eval_at_on_and_just_below_a_fine_node():
    # s - floor(s) rounds to 1.0 just below a node: that node's sample,
    # as on the node itself; a NaN point gives NaN and leaves the others
    f = GRID.sample(lambda x: np.sin(2 * np.pi * x) + 0.3 * np.cos(6 * np.pi * x))
    pts = np.array([-1e-20, 0.0, -5e-324, 1.0, np.nan, 0.3])
    got = f.eval_at(pts)
    assert got[0] == got[1] == got[2] == got[3]
    assert np.isnan(got[4]) and np.all(np.isfinite(np.delete(got, 4)))
    assert np.abs(np.delete(got, 4) - _dense_eval(f.values, np.delete(pts, 4))).max() < 1e-14


def test_write_text_replaces_the_whole_file(tmp_path):
    path = tmp_path / "r.txt"
    write_text(path, "a much longer first text\n" * 3)
    write_text(path, "short\n")
    assert path.read_bytes() == b"short\n"
    write_text(path, "longer than short\n")
    assert path.read_bytes() == b"longer than short\n"


def test_arithmetic_and_norms():
    f = GRID.sample(lambda x: np.sin(2 * np.pi * x))
    g = GRID.constant(2.0)
    assert ((f + g) - g - f).sup_norm() < 1e-15
    assert (2.0 * f - f - f).sup_norm() == 0.0
    assert abs((f * f).values - f.values**2).max() == 0.0
    assert abs(f.l2_norm() - np.sqrt(0.5)) < 1e-14
    assert abs(f.max() - np.max(f.values)) == 0.0
    assert abs(f.min() - np.min(f.values)) == 0.0


def test_mismatched_grids_rejected():
    f = Grid(32).constant(1.0)
    g = Grid(64).constant(1.0)
    with pytest.raises(ValueError):
        f + g
