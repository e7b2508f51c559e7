import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import tfu
from tfu import _kernels, core, support
from tfu.core import _SUM_BLOCK, TFArray, TFGrid, _abs_power, _norm_scale, _plane_sum, _scaled, _scaled_power_sum
from tfu.support import SupportMode, SupportVariant, _greedy_supports
from tfu.identity import _require_rotatable
from tfu.weights import require_inside


def make_grid_field(fn, grid):
    x, xi = grid.meshgrid()
    return TFArray(grid=grid, values=fn(x, xi))


# ---------------------------------------------------------------------------
# quadrature


def test_quadrature_constant_field():
    grid = TFGrid(x_step=0.25, xi_step=0.25, x_count=16, xi_count=16)
    assert _plane_sum(grid, np.ones((16, 16))) == pytest.approx(16.0, abs=0)


def test_quadrature_zero_field(grid):
    assert _plane_sum(grid, np.zeros(grid.shape)) == 0.0


def test_quadrature_gaussian_integral(grid):
    # integral of exp(-pi (x^2 + xi^2)) over the plane is exactly 1
    x, xi = grid.meshgrid()
    assert _plane_sum(grid, np.exp(-np.pi * (x**2 + xi**2))) == pytest.approx(1.0, abs=1e-10)


def test_quadrature_rejects_nonfinite_integrand(grid):
    integrand = np.ones(grid.shape)
    integrand[128, 128] = np.inf
    with pytest.raises(ValueError, match=r"non-finite integrand value at node \(128, 128\)"):
        _plane_sum(grid, integrand)


def test_quadrature_repeat_bit_identical(grid):
    rng = np.random.default_rng(0)
    integrand = rng.standard_normal(grid.shape) ** 2
    first = _plane_sum(grid, integrand)
    assert _plane_sum(grid, integrand) == first


def test_quadrature_of_finite_leaves_that_overflow_is_inf():
    # every leaf is finite, so no node is named: the total is returned
    grid = TFGrid(x_step=1.0, xi_step=1.0, x_count=16, xi_count=16)
    with np.errstate(over="ignore"):
        assert _plane_sum(grid, np.full(grid.shape, 1e308)) == math.inf


def binade_field(n, seed):
    """An n x n complex field whose moduli span 2^-60 ... 2^60, with exact
    zeros, zeros of both signs and subnormal moduli."""
    rng = np.random.default_rng(seed)
    scale = 2.0 ** rng.integers(-60, 60, size=(n, n))
    v = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) * scale
    flat = v.reshape(-1)
    flat[::7] = complex(-0.0, -0.0)
    flat[3::11] = 0
    flat[5::13] = 5e-324
    flat[6::17] = complex(-0.0, 2e-310)
    return v


@pytest.mark.parametrize("n", [16, 96, 256, 300, 1024])  # one block up to 256; 300^2 ends in a part block
@pytest.mark.parametrize("p", [1, 1.5, 2, 2.7, 6])
def test_blockwise_power_sum_is_one_cascade_bit_for_bit(n, p):
    grid = TFGrid(x_step=1 / 8, xi_step=1 / 16, x_count=n, xi_count=n)
    v = TFArray(grid=grid, values=binade_field(n, n))
    for fn, gn in ((1.0, 1.0), (2.0**40, 1.0)):  # k = 0, and k = 40, which takes small moduli to 0
        k, norm = _norm_scale(fn, gn)
        whole = _kernels.cascade_sum(_abs_power(_scaled(v.magnitude, k), p))
        total, norm_p = _scaled_power_sum(v, p, fn, gn)
        assert total.hex() == (grid.cell_measure * whole).hex()
        assert norm_p == norm**p
    assert (n * n > _SUM_BLOCK) == (n >= 300)


def one_cascade(v, p, k):
    """The plane sum of (2^-k |V|)^p as one cascade over every node, and of
    2^-k |V|, support's L1 reference: what the pruned sums must equal."""
    measure = v.grid.cell_measure
    return (
        measure * _kernels.cascade_sum(_abs_power(_scaled(v.magnitude, k), p)),
        measure * _kernels.cascade_sum(_scaled(v.magnitude, k)),
    )


def decaying_field(n, seed, width, spike):
    """binade_field noise, scaled to moduli of at most 2^5, under a
    Gaussian envelope of the given width (in nodes), which decays to far
    below the noise's smallest binade at the edges; with spike, one node in
    the plane's last run, in its far corner, is set to 2^5, as large as
    the noise's largest modulus."""
    j = np.arange(n) - n // 2
    envelope = np.exp(-np.pi * (j[:, None] ** 2 + j[None, :] ** 2) / width**2)
    v = binade_field(n, seed) * 2.0**-55 * envelope
    if spike:
        v[-1, -3] = 2.0**5
    return v


@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(
    n=st.sampled_from([16, 96, 256, 300, 512]),
    seed=st.integers(0, 2**32 - 1),
    width=st.sampled_from([2.0, 8.0, 40.0]),
    spike=st.booleans(),
    p=st.one_of(st.sampled_from([1.0, 2.0, 64.0]), st.floats(1.0, 64.0)),
    e=st.sampled_from([0, 40, -10]),
)
@example(n=512, seed=1, width=8.0, spike=True, p=2.538, e=40)
def test_pruned_plane_sums_are_one_cascade_bit_for_bit(n, seed, width, spike, p, e):
    # the fields decay far below the rounding of their sums, so the pruned
    # sums skip most runs; counts 300 and 512 span several blocks, which
    # are pruned, and 300 leaves a short last run; counts up to 256 are
    # summed whole; e != 0 scales by 2^-k, k != 0, and the scaled moduli
    # stay below 2^15, so no power overflows at p <= 64
    grid = TFGrid(x_step=1 / 8, xi_step=1 / 16, x_count=n, xi_count=n)
    v = TFArray(grid=grid, values=decaying_field(n, seed, width, spike))
    fn, gn = 2.0**e, 1.0
    k, _ = _norm_scale(fn, gn)
    powers, l1 = one_cascade(v, p, k)
    assert _scaled_power_sum(v, p, fn, gn)[0].hex() == powers.hex()
    sums = []
    plane_sum = support._plane_sum
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(support, "_plane_sum", lambda *args: sums.append(plane_sum(*args)) or sums[-1])
        _greedy_supports(v, [SupportMode(SupportVariant.LP_VS_L1P, 1.5, 0.1)], fn, gn)
    assert [total.hex() for total in sums] == [l1.hex()]


@pytest.mark.parametrize("below", [True, False])
def test_pruned_sum_at_the_edge_of_half_an_ulp(below):
    # on a plane of two blocks, run 200 (row 200) holds 256 equal leaves
    # whose bound sits just below, or just above, the planner's threshold
    # beside its sibling, row 201, which peaks at 2 - 2^-52, whose half ulp
    # is 2^-53: the skipped run's sum, 256 x, is then just below half an
    # ulp, and lost in rounding
    grid = TFGrid(x_step=1.0, xi_step=1.0, x_count=512, xi_count=256)
    y = 2 - 2**-52
    threshold = y * (1 - 2**-40) * 2**-54 / (1 + 2**-39)  # run level: (1 + 2^-39)^1
    x = (threshold * (1 - 2**-45 if below else 1 + 2**-45) / 256 - 2**-1000) / (1 + 2**-40)
    field = np.zeros(grid.shape)
    field[200], field[201, 17] = x, y
    v = TFArray(grid=grid, values=field)
    live = core._live_runs(field.size, v.peaks, lambda m: m)
    assert live[200] != below and live[201] and live.sum() == 2 - below
    assert 256 * x < 2**-53
    powers, l1 = one_cascade(v, 1.0, 0)
    assert _scaled_power_sum(v, 1.0, 1.0, 1.0)[0].hex() == powers.hex() == y.hex()


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
@pytest.mark.parametrize("node", [(0, 0), (63, 1023), (64, 0), (700, 3), (1023, 1023)])
def test_blockwise_sum_names_the_first_non_finite_node(bad, node):
    grid = TFGrid(x_step=1 / 32, xi_step=1 / 32, x_count=1024, xi_count=1024)
    field = np.ones(grid.shape)
    field[node] = bad
    field[1023, 1023] = math.nan  # a later one is not named
    with pytest.raises(ValueError, match=rf"^non-finite integrand value at node \({node[0]}, {node[1]}\)$"):
        _plane_sum(grid, field)


def test_blockwise_sum_names_the_node_where_a_leaf_overflows():
    grid = TFGrid(x_step=1 / 32, xi_step=1 / 32, x_count=1024, xi_count=1024)
    field = np.ones(grid.shape)
    field[200, 17] = 1e200
    with np.errstate(over="ignore"):
        with pytest.raises(ValueError, match=r"^non-finite integrand value at node \(200, 17\)$"):
            _plane_sum(grid, field, lambda m: m**2)


def test_descending_is_the_negated_sort_bit_for_bit():
    grid = TFGrid(x_step=1 / 8, xi_step=1 / 16, x_count=300, xi_count=300)
    values = binade_field(300, 3)
    values[::3, ::5] = values[1, 2]  # ties
    v = TFArray(grid=grid, values=values)
    expected = -np.sort(-v.magnitude.ravel())
    assert v.descending.tobytes() == expected.tobytes()
    assert v.descending.flags.c_contiguous and not v.descending.flags.writeable


# ---------------------------------------------------------------------------
# 1-D transform


def test_fourier_gaussian_is_fixed_point(layout):
    f = tfu.sample(tfu.unit_gaussian(), layout)
    fhat = tfu.discrete_fourier(f)
    assert fhat.step == pytest.approx(layout.dual_step)
    assert np.max(np.abs(fhat.samples - f.samples)) < 1e-10


def test_fourier_width_two_gaussian(layout):
    f = tfu.sample(tfu.gaussian(2.0, amplitude=1.0), layout)
    fhat = tfu.discrete_fourier(f)
    xi = fhat.layout.times()
    expected = 2**-0.5 * np.exp(-np.pi * xi**2 / 2)
    assert np.max(np.abs(fhat.samples - expected)) < 1e-12


@pytest.mark.parametrize("n", [0, 1, 2, 3, 4])
def test_fourier_hermite_eigenfunctions(layout, n):
    h = tfu.sample(tfu.hermite(n), layout)
    hhat = tfu.discrete_fourier(h)
    expected = tfu.fourier_closed_form(tfu.hermite(n)).amplitude * h.samples
    assert np.max(np.abs(hhat.samples - expected)) < 1e-12


def test_fourier_rejects_unsound_truncation(layout):
    bad = tfu.SampledSignal(np.ones(layout.count, dtype=complex), layout.step)
    with pytest.raises(ValueError, match="truncation unsound"):
        tfu.discrete_fourier(bad)


def test_parseval(bank_signals):
    f_bank, g_bank = bank_signals
    for s in list(f_bank.values()) + list(g_bank.values()):
        energy = s.step * tfu.pairwise_sum(np.abs(s.samples) ** 2)
        shat = tfu.discrete_fourier(s)
        dual_energy = shat.step * tfu.pairwise_sum(np.abs(shat.samples) ** 2)
        assert dual_energy == pytest.approx(energy, rel=1e-12)


def test_fourier_four_times_is_identity(layout):
    s = tfu.sample(tfu.hermite(3), layout)
    out = s
    for _ in range(4):
        out = tfu.discrete_fourier(out)
    assert out.step == pytest.approx(layout.step)
    scale = np.max(np.abs(s.samples))
    assert np.max(np.abs(out.samples - s.samples)) / scale < 1e-10


# ---------------------------------------------------------------------------
# 2-D transform


def test_fourier_2d_gaussian_is_fixed_point(grid):
    field = make_grid_field(lambda x, xi: np.exp(-np.pi * (x**2 + xi**2)) + 0j, grid)
    out = tfu.fourier_2d(field)
    assert np.max(np.abs(out.values - field.values)) < 1e-9


def test_fourier_2d_zero_field(grid):
    zero = TFArray(grid=grid, values=np.zeros(grid.shape, dtype=complex))
    out = tfu.fourier_2d(zero)
    assert np.all(out.values == 0)


def test_fourier_2d_modulation_translates_output(grid):
    # exp(2 pi i x u) modulation moves the transform by u in its first slot
    u = 1.0
    field = make_grid_field(
        lambda x, xi: np.exp(-np.pi * (x**2 + xi**2)) * np.exp(2j * np.pi * x * u), grid
    )
    out = tfu.fourier_2d(field)
    x, xi = grid.meshgrid()
    expected = np.exp(-np.pi * ((x - u) ** 2 + xi**2))
    assert np.max(np.abs(out.values - expected)) < 1e-9


def test_fourier_2d_rejects_unsound_truncation(grid):
    field = TFArray(grid=grid, values=np.ones(grid.shape, dtype=complex))
    with pytest.raises(ValueError, match="truncation unsound"):
        tfu.fourier_2d(field)


# ---------------------------------------------------------------------------
# type validation


def test_signal_count_must_be_even_and_large_enough():
    with pytest.raises(ValueError, match="even integer >= 16"):
        tfu.SampledSignal(np.zeros(15, dtype=complex), 0.1)
    with pytest.raises(ValueError, match="even integer >= 16"):
        tfu.SampledSignal(np.zeros(21, dtype=complex), 0.1)


def test_signal_step_must_be_positive():
    with pytest.raises(ValueError, match="positive"):
        tfu.SampledSignal(np.zeros(16, dtype=complex), 0.0)


def test_signal_samples_must_be_finite():
    vals = np.zeros(16, dtype=complex)
    vals[3] = np.nan
    with pytest.raises(ValueError, match="finite"):
        tfu.SampledSignal(vals, 0.1)


def test_signal_l2_norm_definition(layout):
    f = tfu.sample(tfu.unit_gaussian(), layout)
    manual = np.sqrt(layout.step * tfu.pairwise_sum(np.abs(f.samples) ** 2))
    assert f.l2_norm() == manual


@pytest.mark.parametrize("e", [-700, 700])
def test_signal_l2_norm_scales_exactly(layout, e):
    # the squares of the 2^e-scaled samples under- or overflow; the norm is
    # 2^e times the unscaled one, bit for bit
    f = tfu.sample(tfu.unit_gaussian(), layout)
    scaled = tfu.SampledSignal(np.ldexp(f.samples.view(np.float64), e).view(complex), layout.step)
    assert scaled.l2_norm() == math.ldexp(f.l2_norm(), e)


def test_signal_times_are_origin_centered(layout):
    t = layout.times()
    assert t[layout.count // 2] == 0.0
    assert t[0] == -(layout.count // 2) * layout.step


def test_grid_validation():
    with pytest.raises(ValueError, match="positive even integer"):
        TFGrid(x_step=1.0, xi_step=1.0, x_count=7, xi_count=8)
    with pytest.raises(ValueError, match="positive and finite"):
        TFGrid(x_step=-1.0, xi_step=1.0, x_count=8, xi_count=8)


def test_grid_cell_measure_positive(grid):
    assert grid.cell_measure == pytest.approx(1.0 / 256)
    _require_rotatable(grid)  # square and self-dual
    require_inside(grid, 8.0)  # the half-extent


def test_lattice_multiple_refuses_an_infinite_ratio(layout):
    # z / step overflows to inf, where round() raised OverflowError; a grid
    # whose x_step is that far off the signal's lattice is refused as off-plane
    f = tfu.sample(tfu.unit_gaussian(), layout)
    with pytest.raises(ValueError, match=r"translation 1e\+308 is not a lattice multiple"):
        tfu.translate_modulate(f, 1e308, 0.0)
    far = TFGrid(x_step=1e308, xi_step=layout.dual_step, x_count=256, xi_count=256)
    with pytest.raises(ValueError, match="off-plane grid"):
        tfu.compute_stft(f, f, far)


def test_tfarray_shape_and_finiteness(grid):
    with pytest.raises(ValueError, match="does not match grid shape"):
        TFArray(grid=grid, values=np.zeros((4, 4), dtype=complex))
    vals = np.zeros(grid.shape, dtype=complex)
    vals[1, 2] = np.inf
    with pytest.raises(ValueError, match=r"non-finite field value at node \(1, 2\)"):
        TFArray(grid=grid, values=vals)


def test_layout_dual_roundtrip(layout):
    assert layout.dual().dual() == layout
    assert TFGrid.from_layout(layout).dual() == TFGrid.from_layout(layout)
