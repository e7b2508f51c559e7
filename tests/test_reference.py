import math

import numpy as np
import pytest
from scipy.integrate import quad

import tfu


def stft_definition_oracle(x, xi):
    """The defining integral of the unit-Gaussian-pair STFT, evaluated by
    adaptive quadrature. Independent of every FFT code path."""

    def integrand(t, trig):
        return math.sqrt(2) * math.exp(-math.pi * (t**2 + (t - x) ** 2)) * trig(2 * math.pi * xi * t)

    re, _ = quad(lambda t: integrand(t, math.cos), -np.inf, np.inf)
    im, _ = quad(lambda t: integrand(t, math.sin), -np.inf, np.inf)
    return re - 1j * im


# ---------------------------------------------------------------------------
# sampling


def test_gaussian_peak_value(layout):
    f = tfu.sample(tfu.unit_gaussian(), layout)
    k0 = layout.count // 2
    assert f.samples[k0] == pytest.approx(2**0.25, abs=1e-15)
    assert abs(2**0.25 - 1.189207) < 1e-6


def test_hermite_one_vanishes_at_origin(layout):
    h1 = tfu.sample(tfu.hermite(1), layout)
    assert h1.samples[layout.count // 2] == 0


def test_translated_gaussian_peaks_at_translation(layout):
    f = tfu.sample(tfu.gaussian(1.0, amplitude=1.0, z=1.0), layout)
    t = layout.times()
    assert f.samples[np.argmax(np.abs(f.samples))] == pytest.approx(1.0, abs=1e-15)
    assert t[np.argmax(np.abs(f.samples))] == 1.0


@pytest.mark.parametrize("a", [0.5, 1.0, 2.0, 4.0])
def test_unit_gaussian_norms(layout, a):
    f = tfu.sample(tfu.unit_gaussian(a), layout)
    assert f.l2_norm() == pytest.approx(1.0, abs=1e-12)


def test_hermite_orthonormality(layout):
    bank = [tfu.sample(tfu.hermite(n), layout) for n in range(5)]
    for n, hn in enumerate(bank):
        for m, hm in enumerate(bank):
            inner = layout.step * tfu.pairwise_sum((np.conj(hn.samples) * hm.samples).real)
            assert inner == pytest.approx(1.0 if n == m else 0.0, abs=1e-10)


def test_hermite_order_limit():
    with pytest.raises(ValueError, match="hermite order"):
        tfu.hermite(9)


def test_gaussian_width_must_be_positive():
    with pytest.raises(ValueError, match="width"):
        tfu.gaussian(-1.0)


# ---------------------------------------------------------------------------
# translation / modulation


def test_translate_modulate_identity(layout):
    f = tfu.sample(tfu.unit_gaussian(), layout)
    out = tfu.translate_modulate(f, 0.0, 0.0)
    assert np.array_equal(out.samples, f.samples)


def test_translate_moves_peak(layout):
    f = tfu.sample(tfu.unit_gaussian(), layout)
    out = tfu.translate_modulate(f, 1.0, 0.0)
    t = layout.times()
    assert t[np.argmax(np.abs(out.samples))] == 1.0


def test_translate_rejects_off_lattice(layout):
    f = tfu.sample(tfu.unit_gaussian(), layout)
    with pytest.raises(ValueError, match="lattice multiple"):
        tfu.translate_modulate(f, 0.03, 0.0)


def test_stft_covariance_under_shifts(layout, grid):
    # |V_g(M_zeta T_z f)(x, xi)| = |V_g f(x - z, xi - zeta)|, (z, zeta) = (1, 2)
    f = tfu.sample(tfu.unit_gaussian(), layout)
    g = tfu.sample(tfu.unit_gaussian(), layout)
    shifted = tfu.translate_modulate(f, 1.0, 2.0)
    v_shift = tfu.compute_stft(shifted, g, grid)
    v_base = tfu.compute_stft(f, g, grid)
    sx = round(1.0 / grid.x_step)
    sxi = round(2.0 / grid.xi_step)
    moved = np.abs(v_shift.values[sx:, sxi:])
    original = np.abs(v_base.values[: -sx or None, : -sxi or None])
    assert np.max(np.abs(moved - original)) < 1e-8


# ---------------------------------------------------------------------------
# closed forms


def closed_value(grid, field, x, xi):
    """The exact field at the grid node (x, xi)."""
    return field.values[grid.x_count // 2 + round(x / grid.x_step), grid.xi_count // 2 + round(xi / grid.xi_step)]


def test_gaussian_stft_at_origin(grid, closed_field):
    assert closed_value(grid, closed_field, 0.0, 0.0) == 1.0


def test_gaussian_stft_spot_values_vs_quadrature_oracle(grid, closed_field):
    # (1, 0): the defining integral gives e^{-pi/2}
    v10 = closed_value(grid, closed_field, 1.0, 0.0)
    assert v10 == pytest.approx(0.20787957635076193, abs=1e-15)
    assert abs(v10 - stft_definition_oracle(1.0, 0.0)) < 1e-12
    # (1, 1): e^{-pi} e^{-i pi} = -e^{-pi}
    v11 = closed_value(grid, closed_field, 1.0, 1.0)
    assert v11 == pytest.approx(-0.04321391826377224, abs=1e-15)
    assert abs(v11 - stft_definition_oracle(1.0, 1.0)) < 1e-12


@pytest.mark.parametrize(
    "x_step, xi_step",
    [
        (3 / 16, 1 / 16),  # stride 3 in x on N = 256: x_step * xi_step = 3/256, and 256/3 is no integer
        (1e-200, 1e-200),  # 1/(x_step * xi_step) overflows
        (1e200, 1e200),  # 1/(x_step * xi_step) underflows to 0
    ],
)
def test_gaussian_stft_field_refuses_grid_off_the_lattice_rule(x_step, xi_step):
    grid = tfu.TFGrid(x_step=x_step, xi_step=xi_step, x_count=256, xi_count=256)
    with pytest.raises(ValueError, match=r"1/\(x_step \* xi_step\) is a positive integer"):
        tfu.gaussian_stft_field(grid)


def test_numeric_stft_matches_closed_form(unit_pair, grid, closed_field):
    f, g = unit_pair
    v = tfu.compute_stft(f, g, grid)
    assert np.max(np.abs(v.values - closed_field.values)) < 1e-8


@pytest.mark.parametrize("n,expected", [(0, 1), (1, -1j), (2, -1), (3, 1j), (4, 1)])
def test_hermite_fourier_eigenvalues(n, expected):
    assert tfu.fourier_closed_form(tfu.hermite(n)).amplitude == expected


@pytest.mark.parametrize("n", [1, 2])
def test_hermite_eigenvalue_numeric_cross_check(layout, n):
    h = tfu.sample(tfu.hermite(n), layout)
    hhat = tfu.discrete_fourier(h)
    ratio = hhat.samples[layout.count // 2 + 8] / h.samples[layout.count // 2 + 8]
    assert ratio == pytest.approx(tfu.fourier_closed_form(tfu.hermite(n)).amplitude, abs=1e-12)


@pytest.mark.parametrize(
    "fn",
    [
        tfu.unit_gaussian(1.0),
        tfu.unit_gaussian(2.0),
        tfu.gaussian(0.5, amplitude=1.5 + 0.5j, z=1.0, w=2.0),
        tfu.hermite(2, z=-1.0, w=1.0),
    ],
)
def test_closed_form_transform_matches_engine(layout, fn):
    numeric = tfu.discrete_fourier(tfu.sample(fn, layout))
    analytic = tfu.sample(tfu.fourier_closed_form(fn), layout.dual())
    assert np.max(np.abs(numeric.samples - analytic.samples)) < 1e-10


def test_unit_gaussian_amplitude_is_finite_where_2a_overflows():
    assert tfu.unit_gaussian(1e308).amplitude == pytest.approx(2**0.25 * 1e77, rel=1e-15)
    for a in (0.5, 1.0, 2.0, 1e300, 8e307):  # 2a finite: the amplitude is (2a)^{1/4}, bit for bit
        assert tfu.unit_gaussian(a).amplitude == (2 * a) ** 0.25
