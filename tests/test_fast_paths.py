"""The one-pass field paths against the formulas they replace.

The centered FFT transforms its ifftshift-ordered input in place, compute_stft
writes its column products straight into that order, and fourier_2d shifts
both axes with one copy. Each must give the bits of the plain formula
step * fftshift(fft(ifftshift(v))), signed zeros included. The other fast
paths: the underflow-gated |V|^p, fields taken over without a copy, the
finiteness check they keep, and the chirp read from a table of roots of
unity instead of an exp at every node.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tfu.core import SampledSignal, SignalLayout, TFArray, TFGrid, _abs_power, _centered_fft, _chirp, fourier_2d
from tfu.stft import compute_stft

derandomized = settings(derandomize=True, database=None, deadline=None, max_examples=60)

even_counts = st.integers(8, 32).map(lambda k: 2 * k)  # 16 ... 64
#: powers of two and steps that are not
steps = st.sampled_from([1.0, 0.25, 1 / 16, 1 / 32, 0.1, 1 / 3, 0.7])
seeds = st.integers(0, 2**32 - 1)


def random_complex(seed, shape):
    """Random complex values with some exact +0 and -0 parts."""
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    flat = v.reshape(-1).view(np.float64)
    flat[rng.random(flat.size) < 0.05] = 0.0
    flat[rng.random(flat.size) < 0.05] = -0.0
    return v


def shift_formula(v, step, axis):
    """The centered FFT as it is defined."""
    shifted = np.fft.ifftshift(v, axes=axis)
    return step * np.fft.fftshift(np.fft.fft(shifted, axis=axis), axes=axis)


def same_bits(a, b):
    return a.shape == b.shape and np.array_equal(a.view(np.float64), b.view(np.float64))


@derandomized
@given(n=even_counts, m=even_counts, step=steps, axis=st.sampled_from([0, 1]), seed=seeds)
def test_centered_fft_matches_shift_formula(n, m, step, axis, seed):
    v = random_complex(seed, (n, m))
    assert same_bits(_centered_fft(np.fft.ifftshift(v, axes=axis), step, axis=axis), shift_formula(v, step, axis))
    row = v[0]
    assert same_bits(_centered_fft(np.fft.ifftshift(row), step), shift_formula(row, step, -1))


@derandomized
@given(n=even_counts, step=steps, seed=seeds)
def test_centered_fft_matches_direct_dft(n, step, seed):
    v = random_complex(seed, n)
    k = np.arange(n) - n // 2
    # exact integer phases mod n, so the direct sum carries no phase rounding
    phase = np.outer(k, k) % n
    direct = step * (np.exp(-2j * np.pi * phase / n) @ v)
    fast = _centered_fft(np.fft.ifftshift(v), step)
    assert np.linalg.norm(fast - direct) <= 1e-12 * np.linalg.norm(direct)


def column_products(f, g):
    """The STFT's column products in sample order, one row at a time."""
    n = f.count
    product = np.zeros((n, n), dtype=np.complex128)
    gconj = np.conj(g.samples)
    for j in range(n):
        s = j - n // 2
        if s >= 0:
            product[j, s:] = f.samples[s:] * gconj[: n - s]
        else:
            product[j, : n + s] = f.samples[: n + s] * gconj[-s:]
    return product


@derandomized
@given(n=even_counts, step=steps, seed=seeds, zeros=st.floats(0, 1))
def test_compute_stft_matches_shift_formula(n, step, seed, zeros):
    # Zeros at the window's start give columns whose products are all zero,
    # so signed zeros reach the transform.
    values = random_complex(seed, (2, n))
    values[1, : int(zeros * n)] = 0
    f, g = SampledSignal(values[0], step), SampledSignal(values[1], step)
    v = compute_stft(f, g, TFGrid.from_layout(f.layout)).values
    assert same_bits(v, shift_formula(column_products(f, g), step, 1))


@derandomized
@given(n=even_counts, m=even_counts, x_step=steps, xi_step=steps, seed=seeds)
def test_fourier_2d_matches_shift_formula(n, m, x_step, xi_step, seed):
    values = random_complex(seed, (n, m))
    values[[0, -1], :] = 0  # a decayed frame passes the truncation check
    values[:, [0, -1]] = 0
    grid = TFGrid(x_step=x_step, xi_step=xi_step, x_count=n, xi_count=m)
    out = fourier_2d(TFArray(grid=grid, values=values))
    assert out.grid == grid.dual()
    expected = shift_formula(shift_formula(values, xi_step, 1), x_step, 0)
    assert same_bits(out.values, expected)


def every_binade(size, seed=7):
    """Nonnegative doubles spread evenly over the bit patterns of every
    binade, subnormals included, with +0, -0 and the extremes."""
    rng = np.random.default_rng(seed)
    bits = rng.integers(0, 0x7FF0000000000000, size=size, dtype=np.uint64)
    a = bits.view(np.float64)
    a[:4] = [0.0, -0.0, 5e-324, np.finfo(np.float64).max]
    return a


@pytest.mark.parametrize("p", [1, 1.437, 2, 2.61, 4.296, 6, 40])
def test_abs_power_equals_pow_bit_for_bit(p):
    a = every_binade(10**6)
    with np.errstate(over="ignore"):  # large a overflow to inf at p > 1, on both sides
        assert same_bits(_abs_power(a, p), a**p)


def test_tfarray_copies_caller_data():
    grid = TFGrid(x_step=1.0, xi_step=1.0, x_count=4, xi_count=4)
    source = np.ones((4, 4), dtype=complex)
    a = TFArray(grid=grid, values=source)
    source[0, 0] = 5.0
    assert a.values[0, 0] == 1.0
    assert not a.values.flags.writeable


def test_fresh_fields_are_read_only():
    step = 1 / 8  # 64 samples on [-4, 4): self-dual, and decayed enough for fourier_2d
    t = (np.arange(64) - 32) * step
    s = SampledSignal(np.exp(-np.pi * t**2), step)
    v = compute_stft(s, s, TFGrid(x_step=step, xi_step=step, x_count=64, xi_count=64))
    for field in (v, fourier_2d(v)):
        assert not field.values.flags.writeable
        assert not field.magnitude.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            field.values[0, 0] = 1.0


def test_fresh_field_that_overflows_is_rejected():
    # |f g| = 1e308 per sample is finite; the column sums of 16 of them are not
    s = SampledSignal(np.full(16, 1e154, dtype=complex), 1.0)
    grid = TFGrid(x_step=1.0, xi_step=1 / 16, x_count=16, xi_count=16)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(ValueError, match=r"^non-finite field value at node \(\d+, \d+\)$"):
            compute_stft(s, s, grid)


#: dual layouts with N = 16 ... 1024
dual_layouts = st.builds(SignalLayout, st.integers(8, 512).map(lambda k: 2 * k), steps)


@derandomized
@given(layout=dual_layouts, sign=st.sampled_from([-1, 1]), half=st.booleans())
def test_chirp_table_matches_exp(layout, sign, half):
    # np.exp rounds its argument 2 pi x xi to 2^-53 relative, an absolute
    # error that grows with |x xi|; the bound allows for it
    grid = TFGrid.from_layout(layout)
    x, xi = grid.meshgrid()
    expected = np.exp((0.5 if half else 1.0) * sign * 2j * np.pi * x * xi)
    bound = 2.0**-50 * (1 + 2 * np.pi * np.max(np.abs(x * xi)))
    assert np.max(np.abs(_chirp(grid, sign, half) - expected)) <= bound


def test_chirp_table_is_bounded_by_the_grid():
    # M = 10^12, but the table holds only the 2Q + 1 = 129 values of j'k'
    grid = TFGrid(x_step=1e-6, xi_step=1e-6, x_count=16, xi_count=16)
    x, xi = grid.meshgrid()
    assert np.max(np.abs(_chirp(grid, 1) - np.exp(2j * np.pi * x * xi))) <= 2.0**-50
