import math

import numpy as np
import pytest

import tfu
from tfu.core import SignalLayout, TFArray, TFGrid
from tfu.identity import point_reflection


def test_auxiliary_field_gaussian_zero_shift(unit_pair, grid):
    # phases cancel and F_0 collapses to exp(-pi (x^2 + xi^2))
    f, g = unit_pair
    aux = tfu.build_auxiliary(f, g, grid, 0.0, 0.0)
    x, xi = grid.meshgrid()
    assert np.max(np.abs(aux.values - np.exp(-np.pi * (x**2 + xi**2)))) < 1e-12


def test_auxiliary_origin_magnitude_is_squared_stft(layout, grid):
    # F_Z(0,0) is V(0,0)^2, so its magnitude is |V(0,0)|^2; the value itself
    # is real and nonnegative whenever the shift carries no modulation phase
    f = tfu.sample(tfu.hermite(1), layout)
    g = tfu.sample(tfu.unit_gaussian(), layout)
    k = grid.x_count // 2
    aux = tfu.build_auxiliary(f, g, grid, 1.0, 2.0)
    origin = aux.values[k, k]
    v00 = tfu.compute_stft(tfu.translate_modulate(f, 1.0, 2.0), g, grid).values[k, k]
    assert abs(origin) == pytest.approx(abs(v00) ** 2, rel=1e-12)
    plain = tfu.build_auxiliary(f, g, grid, 1.0, 0.0).values[k, k]
    assert abs(plain.imag) < 1e-15
    assert plain.real >= 0


def test_auxiliary_origin_value_gaussian_shift(unit_pair, grid):
    f, g = unit_pair
    aux = tfu.build_auxiliary(f, g, grid, 1.0, 0.0)
    k = grid.x_count // 2
    assert aux.values[k, k] == pytest.approx(math.exp(-math.pi), abs=1e-10)


def test_auxiliary_inherits_gaussian_decay(unit_pair, grid):
    f, g = unit_pair
    x, xi = grid.meshgrid()
    for z, zeta in [(0.0, 0.0), (1.0, 1.0)]:
        aux = tfu.build_auxiliary(f, g, grid, z, zeta)
        mag = np.abs(aux.values)
        peak = mag.max()
        for radius in (2.0, 4.0):
            outside = mag[x**2 + xi**2 > radius**2]
            envelope = math.exp(-math.pi * radius**2)
            # the FFT noise floor (~1e-16 of the peak) caps what decay is
            # observable; at radius 4 the true envelope sits below it
            assert outside.max() <= peak * (envelope + 1e-15)


def test_rotation_invariance_gaussian_zero_shift(unit_pair, grid):
    f, g = unit_pair
    aux = tfu.build_auxiliary(f, g, grid, 0.0, 0.0)
    assert tfu.rotation_invariance_defect(aux) < 1e-7


def test_rotation_invariance_gaussian_shift_lattice(unit_pair, grid):
    f, g = unit_pair
    for z in (-1.0, 0.0, 1.0):
        for zeta in (-1.0, 0.0, 1.0):
            aux = tfu.build_auxiliary(f, g, grid, z, zeta)
            assert tfu.rotation_invariance_defect(aux) < 1e-6, (z, zeta)


def test_rotation_invariance_hermite_window_pair(layout, grid):
    f = tfu.sample(tfu.hermite(1), layout)
    g = tfu.sample(tfu.unit_gaussian(), layout)
    aux = tfu.build_auxiliary(f, g, grid, 0.0, 0.0)
    assert tfu.rotation_invariance_defect(aux) < 1e-6


def test_rotation_invariance_bank_over_shift_lattice(bank_pairs, grid):
    shifts = [(z, zeta) for z in (-1.0, 0.0, 1.0) for zeta in (-1.0, 0.0, 1.0)]
    for name, f, g in bank_pairs:
        for z, zeta in shifts:
            aux = tfu.build_auxiliary(f, g, grid, z, zeta)
            assert tfu.rotation_invariance_defect(aux) < 1e-6, (name, z, zeta)


def test_asymmetric_grid_rejected():
    # the plane of a layout that is not self-dual: 256 * 0.1^2 != 1
    layout = SignalLayout(count=256, step=0.1)
    f = tfu.sample(tfu.unit_gaussian(), layout)
    plane = TFGrid.from_layout(layout)
    with pytest.raises(ValueError, match="asymmetric grid"):
        tfu.build_auxiliary(f, f, plane, 0.0, 0.0)
    with pytest.raises(ValueError, match="asymmetric grid"):
        tfu.fundamental_identity_defect(f, f, f, f, plane)


def test_auxiliary_refuses_grid_off_the_lattice_rule(layout):
    # a square stride-3 grid: x_step * xi_step = 3/256, and 256/3 is not an
    # integer, so it is no layout's plane; refused before any STFT is computed
    f = tfu.sample(tfu.unit_gaussian(), layout)
    step = math.sqrt(3) / 16
    square = TFGrid(x_step=step, xi_step=step, x_count=256, xi_count=256)
    with pytest.raises(ValueError, match="^off-plane grid: "):
        tfu.build_auxiliary(f, f, square, 0.0, 0.0)


def test_fundamental_identity_gaussian_tuple(unit_pair, grid):
    f, g = unit_pair
    assert tfu.fundamental_identity_defect(f, f, g, g, grid) < 1e-7


def test_fundamental_identity_hermite_tuples(layout, grid):
    f = tfu.sample(tfu.unit_gaussian(), layout)
    h1 = tfu.sample(tfu.hermite(1), layout)
    h2 = tfu.sample(tfu.hermite(2), layout)
    assert tfu.fundamental_identity_defect(h1, h2, f, f, grid) < 1e-6


def test_transform_at_origin_recovers_energy(layout, grid):
    # with f1=f2, g1=g2, the transformed product at the origin is the
    # plane energy |f|^2 |g|^2, which equals V_f f(0,0) conj(V_g g(0,0))
    f = tfu.sample(tfu.unit_gaussian(2.0), layout)
    g = tfu.sample(tfu.hermite(1), layout)
    v = tfu.compute_stft(f, g, grid)
    product = tfu.TFArray(grid=grid, values=v.values * np.conj(v.values))
    transformed = tfu.fourier_2d(product)
    k = grid.x_count // 2
    origin = transformed.values[k, k]
    energy = (f.l2_norm() * g.l2_norm()) ** 2
    assert origin == pytest.approx(energy, rel=1e-9)
    vff = tfu.compute_stft(f, f, grid).values[k, k]
    vgg = tfu.compute_stft(g, g, grid).values[k, k]
    assert origin == pytest.approx(vff * np.conj(vgg), rel=1e-9)


def test_fundamental_identity_swap_symmetry(layout, grid):
    f1 = tfu.sample(tfu.unit_gaussian(), layout)
    f2 = tfu.sample(tfu.hermite(2), layout)
    g1 = tfu.sample(tfu.unit_gaussian(2.0), layout)
    g2 = tfu.sample(tfu.hermite(1), layout)
    d = tfu.fundamental_identity_defect(f1, f2, g1, g2, grid)
    d_swapped = tfu.fundamental_identity_defect(f2, f1, g2, g1, grid)
    assert abs(d - d_swapped) < 1e-12


def test_fundamental_identity_product_operand_order():
    # At N = 64 a field takes 64 KiB, below the 256 KiB from which numpy
    # evaluates a * np.conj(b) as conj(b) * a in place; the defect must be
    # that of the fixed order conj(b) * a all the same. For this tuple the
    # order a * conj(b) gives another defect.
    layout = SignalLayout(64, 1 / 8)
    grid = TFGrid.from_layout(layout)
    f1, f2, g1, g2 = (
        tfu.sample(fn, layout) for fn in (tfu.hermite(1), tfu.hermite(2), tfu.unit_gaussian(), tfu.hermite(1))
    )

    def product(f, g, h, k):
        return np.conj(tfu.compute_stft(h, k, grid).values) * tfu.compute_stft(f, g, grid).values

    lhs = tfu.fourier_2d(tfu.TFArray(grid, product(f1, g1, f2, g2))).values
    rhs = point_reflection(product(f1, f2, g1, g2), 0).T
    scale = max(float(np.max(np.abs(lhs))), float(np.max(np.abs(rhs))))
    expected = float(np.max(np.abs(lhs - rhs))) / scale
    assert tfu.fundamental_identity_defect(f1, f2, g1, g2, grid) == expected


@pytest.mark.parametrize("shape", [(8, 8), (6, 10)])
def test_reflections_are_the_index_permutations(shape):
    v = np.random.default_rng(1).standard_normal(shape) + 1j
    i0, i1 = ((n - np.arange(n)) % n for n in shape)
    assert np.array_equal(point_reflection(v), v[np.ix_(i0, i1)])
    assert np.array_equal(point_reflection(v, 0).T, v[i0, :].T)


def test_rotation_defect_refuses_a_zero_field(grid):
    # a shift that moves f off the window gives F_Z = 0, which divided by zero
    with pytest.raises(ValueError, match="field is identically zero"):
        tfu.rotation_invariance_defect(TFArray(grid, np.zeros(grid.shape, dtype=complex)))
