"""The one-pass field paths against the formulas they replace.

The centered FFT reads its input in lattice order into one spare block of
rows at a time (the last block may be short), with the halves swapped, and
writes the transform in place or into a given array; compute_stft forms
its column products with one masked multiply, and the 2-D transform runs
in place on a writable input (a read-only one is read into one fresh
array) and takes its second pass along rows after an in-place tiled
transpose. Each must give the bits of the plain formula
step * fftshift(fft(ifftshift(v))), signed zeros included. The identity
checks compare the transform, axes swapped, with row reflections read
through views; the product identity forms its left product in one pass
over row blocks of the STFTs and streams its right product against the
transform in a second, each side computing a distinct pair's rows at
most once; the rotation check forms F_Z in place of V, one mirrored pair
of row blocks at a time, and streams it again in those pairs against its
transform (a field of the default layout's size is held twice instead).
Both second passes skip the pairs of blocks that cannot reach the gap,
the identity's by row bounds from the samples, which every computed
modulus must respect: their defects must equal those of the formulas
with full rotated copies, a gap planted far from the centre must still
be found, the shared rule must keep a pair whose sides differ by more
than the gap or whose rows would raise the scale, and a non-finite
product is named at its node. The other fast paths: the underflow-gated
|V|^p, max |.| taken in row blocks, fields taken over without a copy,
the finiteness check they keep, and the chirp
read from a table of roots of unity instead of an exp at every node. Every
row source writes every node of the block it is given: any split of its
rows, into blocks filled with nan, gives the bits of _fill's whole field.
The scenario context's moduli, filled one block of rows at a time, must
have the bits of |.| of the whole fields; a modulus that its last reader
owns, and overwrites, must give the results of a shared one. The checks',
scenarios' and whole-plane fills' traced peaks are bounded in units of one
field's bytes, at N = 1024 and, for the product identity, at N = 256 too.
"""

import itertools
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import tfu
from tfu import cli, core, identity, stft, support
from tfu.core import (
    DEFAULT_LAYOUT,
    SampledSignal,
    SignalLayout,
    TFArray,
    TFGrid,
    _abs_power,
    _centered_fft,
    _chirp_rows,
    _fill,
    _finite_peak,
    _fourier_2d_swapped,
    _max_abs,
    fourier_2d,
)
from tfu.cli import Scenario, ScenarioContext
from tfu.identity import build_auxiliary, fundamental_identity_defect, point_reflection, rotation_invariance_defect
from tfu.reference import _gaussian_rows, translate_modulate
from tfu.specs import function_spec
from tfu.stft import _stft_rows, compute_stft
from tfu.support import SupportMode, SupportVariant, _greedy_supports, bound_sweep, lieb_ratio
from tfu.weights import WeightFamily, WeightSpec, _pair_rows, growth_scan

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


def chirp(grid, sign, half=False):
    """The whole chirp on grid, as the library fills it."""
    return _fill(grid, _chirp_rows(grid, sign, half))


@derandomized
@given(n=even_counts, m=even_counts, step=steps, seed=seeds)
def test_centered_fft_matches_shift_formula(n, m, step, seed):
    v = random_complex(seed, (n, m))
    expected = shift_formula(v, step, -1)
    assert same_bits(_centered_fft(v.copy(), step), expected)
    row = v[0]
    assert same_bits(_centered_fft(row.copy(), step), shift_formula(row, step, -1))
    given = v.copy()
    given.setflags(write=False)
    out = np.empty_like(v)
    assert _centered_fft(given, step, out) is out
    assert same_bits(out, expected)
    assert same_bits(given, v)  # untouched


@pytest.mark.parametrize("rows", [1, 31, 33, 257])
def test_centered_fft_rows_in_partial_blocks(rows):
    """At N = 1024 a block holds 16 rows: these counts end in a part block."""
    v = random_complex(rows, (rows, 1024))
    assert same_bits(_centered_fft(v.copy(), 1 / 32), shift_formula(v, 1 / 32, -1))


def traced_peak(call):
    """The tracemalloc peak of call(), in bytes."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_centered_fft_peak_memory_is_one_block():
    values = random_complex(5, (1024, 1024))
    assert traced_peak(lambda: _centered_fft(values, 1 / 32)) < values.nbytes / 8


#: the N = 1024 plane of the benchmark's large grid: one field takes F = 16 MiB
LARGE = SignalLayout(1024, 1 / 32)


@pytest.fixture(scope="module")
def large():
    """The large plane, the unit Gaussian G and the Hermite function h1 on it."""
    grid = TFGrid.from_layout(LARGE)
    return grid, tfu.sample(tfu.unit_gaussian(), LARGE), tfu.sample(tfu.hermite(1), LARGE)


def test_lieb_ratio_peak_memory_is_a_block(large):
    grid, G, h1 = large
    v = compute_stft(G, h1, grid)
    v.magnitude  # cached, as the isometry check leaves it
    assert traced_peak(lambda: lieb_ratio(v, 2.7, 1.0, 1.0)) <= v.values.nbytes / 8


def test_descending_peak_memory_is_the_sorted_array(large):
    grid, G, h1 = large
    v = compute_stft(G, h1, grid)
    v.magnitude
    assert traced_peak(lambda: v.descending) <= 0.55 * v.values.nbytes


def test_closed_form_deviation_peak_memory_is_a_block(large_grid_scenarios):
    # the one pass fills both moduli, F/2 each, and holds one block of rows
    ctx = cli.ScenarioContext(large_grid_scenarios["unit-pair"])
    assert traced_peak(lambda: cli._closed_form(ctx)) <= 1.1 * 16 * 2**20


@pytest.mark.parametrize(
    "picks, fields",
    [
        # each case holds the left product, transformed in place, and about
        # one block of rows, split over the side's distinct pairs (and, on
        # the right side, the block of the product).
        # Picks 0, 1, 2 are G, h1, h2 at N = 1024, where a block is F/32:
        # (h1, G, h1, h1), two pairs a side, (h1, h1) on both
        ((1, 0, 1, 1), 1.2),
        # (G, G, G, G), one pair whose rows form both sides
        ((0, 0, 0, 0), 1.2),
        # (h1, h2, G, G), four distinct pairs
        ((1, 2, 0, 0), 1.2),
        # picks 3, 4, 5 are G, h1, h2 at N = 256, where a block is F/2
        ((4, 3, 4, 4), 2.2),
        ((3, 3, 3, 3), 2.2),
        ((4, 5, 3, 3), 2.2),
    ],
)
def test_identity_defect_peak_memory(large, picks, fields):
    _, G, h1 = large
    fns = (tfu.unit_gaussian(), tfu.hermite(1), tfu.hermite(2))
    signals = [G, h1, tfu.sample(fns[2], LARGE), *(tfu.sample(fn, DEFAULT_LAYOUT) for fn in fns)]
    layout = signals[picks[0]].layout
    grid = TFGrid.from_layout(layout)
    peak = traced_peak(lambda: fundamental_identity_defect(*(signals[i] for i in picks), grid))
    assert peak <= fields * 16 * layout.count**2


@pytest.fixture(scope="module")
def large_grid_scenarios():
    """The scenarios of the large-grid golden config, at N = 1024, by name."""
    return {scn.name: scn for scn in cli.load_config(Path(__file__).parent / "golden/large_grid/large_grid.ini")}


@pytest.mark.parametrize(
    "name, fields",
    [
        # |V| and |closed| with the first scan's integrand; closed is
        # dropped after weights, its last reader, before support, which
        # owns |V|, sorts it in place and forms one block of masses at a time
        ("unit-pair", 1.2),
        # |V| with a scan's integrand
        ("bank", 0.8),
        # |closed|, whose block of radius 8, a quarter of the plane, holds
        # the scan's integrand (weights owns closed), and the log-weight
        ("overflow-radial-full", 0.7),
        # each tuple alone, as test_identity_defect_peak_memory
        ("identity", 1.2),
        # F_Z, transformed in place, and about one block, as
        # test_rotation_check_peak_memory_is_one_field
        ("rotation", 1.2),
    ],
)
def test_scenario_peak_memory(large_grid_scenarios, name, fields):
    scn = large_grid_scenarios[name]
    assert traced_peak(lambda: cli.run_scenario(scn)) <= fields * 16 * 2**20


def test_bound_sweep_peak_memory_is_the_modulus(large):
    # |V|, F/2, sorted in place, and a block of rows or masses
    grid, G, h1 = large
    modes = [SupportMode(SupportVariant.L1_FRACTION, 2.0, 0.1), SupportMode(SupportVariant.LP_VS_ENERGY, 2.0, 0.25)]
    assert traced_peak(lambda: bound_sweep(G, h1, grid, modes)) <= 0.65 * 16 * 2**20


def test_support_check_peak_memory_is_the_modulus(tmp_path):
    # support, the last reader of |V|, sorts it in place: F/2 and a block
    config = tmp_path / "support.ini"
    config.write_text(
        "[s]\ncount = 1024\nstep = 0.03125\nchecks = support\nsupport = l1_fraction p=2 eps=0.1; "
        "lp_vs_energy p=2 eps=0.25; lp_vs_l1p p=1.5 eps=0.1 expect=unsatisfiable\n",
        encoding="utf-8",
    )
    (scn,) = cli.load_config(config)
    assert traced_peak(lambda: cli.run_scenario(scn)) <= 0.65 * 16 * 2**20


def test_an_owned_modulus_gives_the_shared_modulus_results(monkeypatch):
    # an owned modulus is sorted in place by support and holds a scan's
    # integrand; the caller's modulus is read only, and both give the bits.
    # The lp_vs_l1p reference is summed from the row-major |V| on both: for
    # (G, G) here, the sorted |V| would sum to another last bit
    grid = TFGrid.from_layout(DEFAULT_LAYOUT)
    G = default_bank()[0]
    norm = G.l2_norm()
    modes = [
        SupportMode(SupportVariant.L1_FRACTION, 2.0, 0.1),
        SupportMode(SupportVariant.LP_VS_L1P, 1.5, 0.1),
        SupportMode(SupportVariant.LP_VS_ENERGY, 2.5, 0.25),
        SupportMode(SupportVariant.LP_VS_L1P, 1.2, 0.3),
    ]
    scan = (WeightSpec(WeightFamily.HYPERBOLIC, p=2), (1.0, 2.0, 4.0, 8.0))
    sums = []
    plane_sum = support._plane_sum
    monkeypatch.setattr(support, "_plane_sum", lambda *args: sums.append(plane_sum(*args)) or sums[-1])
    shared = core._modulus(grid, _stft_rows(G, G, grid))
    before = shared.values.copy()
    expected = [tfu.greedy_essential_support(shared, mode, norm, norm) for mode in modes]
    shared_sums, sums[:] = sums[:], []
    assert _greedy_supports(core._modulus(grid, _stft_rows(G, G, grid))._release(), modes, norm, norm) == expected
    assert sums == shared_sums[:1]
    assert tfu.growth_scan(shared, *scan) == tfu.growth_scan(core._modulus(grid, _stft_rows(G, G, grid))._release(), *scan)
    assert same_bits(shared.values, before) and not shared.values.flags.writeable


@pytest.mark.parametrize("family, N", [(WeightFamily.BONAMI_DENOMINATOR, 2.0), (WeightFamily.DEMANGE_DENOMINATOR, 0.5)])
def test_denominator_weight_scan_peak_memory(closed_field, family, N):
    # at radius 8 the square is the whole N = 256 plane: the integrand and
    # the log-weight's two plane arrays, F/2 each (F = 1 MiB here)
    closed_field.magnitude
    peak = traced_peak(lambda: growth_scan(closed_field, WeightSpec(family, N=N), (4.0, 5.0, 6.0, 8.0)))
    assert peak <= 1.7 * closed_field.values.nbytes


def test_rotation_defect_peak_memory_is_one_copy(large):
    grid, G, _ = large
    aux = build_auxiliary(G, G, grid, 1.0, 0.441)
    assert traced_peak(lambda: rotation_invariance_defect(aux)) <= 1.2 * aux.values.nbytes


def test_rotation_check_peak_memory_is_one_field(large):
    # F_Z, formed in place of V and transformed in place, and about one
    # block of rows, in both passes; the field's build is included
    grid, G, _ = large
    assert traced_peak(lambda: identity._rotation_defect(G, G, grid, 1.0, 0.441)) <= 1.15 * 16 * 2**20


def test_auxiliary_peak_memory_is_the_field(large):
    # F_Z, formed in place of V, and a mirrored pair of blocks of temporaries
    grid, G, _ = large
    assert traced_peak(lambda: build_auxiliary(G, G, grid, 1.0, 0.441)) <= 1.1 * 16 * 2**20


def test_rotation_defect_takes_the_peak_once(monkeypatch):
    grid = TFGrid.from_layout(DEFAULT_LAYOUT)
    G = tfu.sample(tfu.unit_gaussian(), DEFAULT_LAYOUT)
    aux = build_auxiliary(G, G, grid, 0.5, 0.25)
    expected = rotation_invariance_defect(aux)
    calls = []
    max_abs = core._max_abs

    def counting(a, b=None):
        calls.append(b)
        return max_abs(a, b)

    monkeypatch.setattr(core, "_max_abs", counting)
    monkeypatch.setattr(identity, "_max_abs", counting)
    assert rotation_invariance_defect(aux) == expected
    assert len(calls) == 2  # max |F_Z|, which the decay check is given, and the gap


def test_identity_checks_the_transform_in_its_peak_pass(monkeypatch):
    # the transform's maximum is the scale and its finiteness check: no
    # other pass tests the whole transform (a product block is 128 rows or fewer)
    G = default_bank()[0]
    shapes = []
    require = core._require_finite

    def recording(arr, what, origin=None):
        shapes.append(arr.shape)
        return require(arr, what, origin)

    monkeypatch.setattr(core, "_require_finite", recording)
    monkeypatch.setattr(identity, "_require_finite", recording)
    fundamental_identity_defect(G, G, G, G, TFGrid.from_layout(DEFAULT_LAYOUT))
    assert shapes and (256, 256) not in shapes


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_finite_peak_names_the_first_non_finite_node(bad):
    swapped = random_complex(4, (64, 64))
    swapped[9, 5] = swapped[40, 3] = complex(bad, 0)
    with pytest.raises(ValueError, match=r"^non-finite field value at node \(3, 40\)$"):
        _finite_peak(swapped)
    # each row's peak, in one block and, at 8192 nodes a row, in ten blocks of 4
    assert same_bits(_finite_peak(swapped[:9]), np.max(np.abs(swapped[:9]), axis=1))
    wide = random_complex(5, (40, 8192))
    assert same_bits(_finite_peak(wide), np.max(np.abs(wide), axis=1))


@pytest.mark.parametrize("n", [16, 600])
def test_fourier_2d_swapped_transforms_in_place(n):
    values = random_complex(n, (n, n))
    values[[0, -1], :] = 0
    values[:, [0, -1]] = 0
    grid = TFGrid(x_step=0.1, xi_step=1 / 3, x_count=n, xi_count=n)
    expected = shift_formula(shift_formula(values, grid.xi_step, 1), grid.x_step, 0).T
    given = values.copy()
    swapped = _fourier_2d_swapped(grid, given)
    assert swapped is given
    assert same_bits(swapped, np.ascontiguousarray(expected))


def test_fourier_2d_swapped_reads_read_only_values():
    values = random_complex(3, (64, 64))
    values[[0, -1], :] = 0
    values[:, [0, -1]] = 0
    grid = TFGrid(x_step=0.1, xi_step=1 / 3, x_count=64, xi_count=64)
    given = values.copy()
    expected = _fourier_2d_swapped(grid, given.copy())
    given.setflags(write=False)
    swapped = _fourier_2d_swapped(grid, given)
    assert swapped is not given
    assert same_bits(given, values)  # untouched
    assert same_bits(swapped, expected)


@pytest.mark.parametrize("shape", [(7,), (16, 16), (33, 1024), (600, 600)])
def test_max_abs_equals_the_whole_array_formula(shape):
    a, b = random_complex(1, shape), random_complex(2, shape)
    assert _max_abs(a) == float(np.max(np.abs(a)))
    assert _max_abs(a, b) == float(np.max(np.abs(a - b)))


@derandomized
@given(n=even_counts, step=steps, seed=seeds)
def test_centered_fft_matches_direct_dft(n, step, seed):
    v = random_complex(seed, n)
    k = np.arange(n) - n // 2
    # exact integer phases mod n, so the direct sum carries no phase rounding
    phase = np.outer(k, k) % n
    direct = step * (np.exp(-2j * np.pi * phase / n) @ v)
    fast = _centered_fft(v.copy(), step)
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


# squares that are not multiples of the 64-point transpose tile, and rectangles
@example(n=96, m=96, x_step=0.1, xi_step=1 / 3, seed=1)
@example(n=200, m=200, x_step=0.1, xi_step=1 / 3, seed=2)
@example(n=130, m=130, x_step=1.0, xi_step=0.25, seed=3)
@example(n=16, m=96, x_step=0.7, xi_step=1 / 16, seed=4)
@example(n=200, m=72, x_step=0.1, xi_step=1 / 32, seed=5)
@derandomized
@given(n=even_counts, m=even_counts, x_step=steps, xi_step=steps, seed=seeds)
def test_fourier_2d_matches_shift_formula(n, m, x_step, xi_step, seed):
    values = random_complex(seed, (n, m))
    values[[0, -1], :] = 0  # a decayed frame passes the truncation check
    values[:, [0, -1]] = 0
    grid = TFGrid(x_step=x_step, xi_step=xi_step, x_count=n, xi_count=m)
    out = fourier_2d(TFArray(grid=grid, values=values))
    assert out.grid == grid.dual()
    assert out.values.flags.c_contiguous
    expected = shift_formula(shift_formula(values, xi_step, 1), x_step, 0)
    assert same_bits(out.values, expected)


#: 64 samples on [-4, 4): self-dual, so the identity checks take its plane
SMALL = SignalLayout(64, 1 / 8)
eighths = st.integers(-4, 4).map(lambda k: k / 8)  # lattice multiples of 1/8 and 1/16


def signals(layout):
    """Gaussians and Hermite functions, shifted in time and frequency by up to 1/2."""
    functions = st.one_of(
        st.builds(
            tfu.gaussian,
            st.floats(1.0, 2.0),
            st.complex_numbers(min_magnitude=0.5, max_magnitude=2.0),
            eighths,
            eighths,
        ),
        st.builds(tfu.hermite, st.integers(0, 2), eighths, eighths),
    )
    return functions.map(lambda fn: tfu.sample(fn, layout))


def copying_identity_defect(f1, f2, g1, g2, grid):
    """The product identity's defect with four STFTs and a rotated copy."""

    def product(f, g, h, k):
        return np.multiply(np.conj(compute_stft(h, k, grid).values), compute_stft(f, g, grid).values)

    lhs = fourier_2d(TFArray(grid, product(f1, g1, f2, g2))).values
    rhs = point_reflection(product(f1, f2, g1, g2), 0).T
    scale = max(float(np.max(np.abs(lhs))), float(np.max(np.abs(rhs))))
    return float(np.max(np.abs(lhs - rhs))) / scale


@derandomized
@given(bank=st.lists(signals(SMALL), min_size=1, max_size=3), picks=st.lists(st.integers(0, 2), min_size=4, max_size=4))
def test_identity_defect_equals_the_copying_formula(bank, picks):
    # picks from a bank of one to three objects repeat often, as the CLI's do
    f1, f2, g1, g2 = (bank[i % len(bank)] for i in picks)
    grid = TFGrid.from_layout(SMALL)
    assert fundamental_identity_defect(f1, f2, g1, g2, grid) == copying_identity_defect(f1, f2, g1, g2, grid)


@derandomized
@given(f=signals(DEFAULT_LAYOUT), g=signals(DEFAULT_LAYOUT), z=eighths, zeta=eighths)
def test_rotation_defect_equals_the_copying_formula(f, g, z, zeta):
    # on [-8, 8), where every shifted F_Z decays at the window's edge
    grid = TFGrid.from_layout(DEFAULT_LAYOUT)
    aux = build_auxiliary(f, g, grid, z, zeta)
    v = compute_stft(translate_modulate(f, z, zeta), g, grid).values
    assert same_bits(aux.values, chirp(grid, 1) * v * point_reflection(v))
    rotated = point_reflection(aux.values, 0).T
    expected = float(np.max(np.abs(fourier_2d(aux).values - rotated))) / float(np.max(aux.magnitude))
    assert rotation_invariance_defect(aux) == expected


@pytest.mark.parametrize("count", [16, 64, 1024])
def test_auxiliary_equals_the_copying_formula_at_any_count(count):
    # the reflected views run numpy's strided loops, whose lengths and
    # strides change with count; the product must keep the contiguous bits
    layout = SignalLayout(count, count**-0.5)
    grid = TFGrid.from_layout(layout)
    f, g = tfu.sample(tfu.hermite(1), layout), tfu.sample(tfu.gaussian(1.5, 1 - 0.5j), layout)
    z = zeta = 2 * layout.step
    v = compute_stft(translate_modulate(f, z, zeta), g, grid).values
    expected = chirp(grid, 1) * v * point_reflection(v)
    assert same_bits(build_auxiliary(f, g, grid, z, zeta).values, expected)


def outcome(call):
    """call()'s value, or the message of the ValueError it raises."""
    try:
        return call()
    except ValueError as exc:
        return str(exc)


@derandomized
@given(f=signals(DEFAULT_LAYOUT), g=signals(DEFAULT_LAYOUT), z=eighths, zeta=eighths)
def test_rotation_check_equals_the_defect_of_the_built_field(f, g, z, zeta):
    grid = TFGrid.from_layout(DEFAULT_LAYOUT)
    expected = rotation_invariance_defect(build_auxiliary(f, g, grid, z, zeta))
    assert identity._streamed_rotation_defect(f, g, grid, z, zeta) == expected


@pytest.mark.parametrize(
    "count, rows, uppers",
    [
        # rows per block, if set through the block size, and the upper
        # blocks of rows count/2 - 1 ... 1 that the passes give, in order
        (16, None, [7]),
        (16, 3, [3, 3, 1]),
        (64, None, [31]),
        (64, 5, [5] * 6 + [1]),
        (1024, None, [16] * 31 + [15]),
    ],
)
def test_rotation_check_in_mirrored_blocks_at_any_count(monkeypatch, count, rows, uppers):
    # each pass gives row count/2, each upper block and then its mirrored
    # lower block, from the centre out, and row 0. By default counts 16 and
    # 64 take one pair of blocks and 1024 ends in a short pair; a smaller
    # block size gives 16 and 64 a short last pair too. At count 16 F_Z has
    # not decayed at the window's edge: both paths refuse it with the same
    # message
    if rows:
        monkeypatch.setattr(core, "_FFT_BLOCK_BYTES", 32 * count * rows)
    layout = SignalLayout(count, count**-0.5)
    grid = TFGrid.from_layout(layout)
    f, g = tfu.sample(tfu.hermite(1), layout), tfu.sample(tfu.gaussian(1.5, 1 - 0.5j), layout)
    z = zeta = 2 * layout.step
    v = compute_stft(translate_modulate(f, z, zeta), g, grid).values
    expected = chirp(grid, 1) * v * point_reflection(v)
    streamed, sizes = np.full(grid.shape, np.nan, dtype=np.complex128), []
    for start, block in identity._auxiliary_rows(grid, f, g, z, zeta):
        streamed[start : start + len(block)] = block
        sizes.append(len(block))
    assert sizes == [1, *(size for size in uppers for _ in "ul"), 1]
    assert same_bits(streamed, expected)
    aux = build_auxiliary(f, g, grid, z, zeta)
    assert same_bits(aux.values, expected)
    streamed = outcome(lambda: identity._streamed_rotation_defect(f, g, grid, z, zeta))
    assert streamed == outcome(lambda: rotation_invariance_defect(aux))


def test_rotation_check_skips_the_pairs_that_cannot_reach_the_gap(monkeypatch, large):
    # F_Z of the unit Gaussian, and its largest gap, lie near the centre:
    # the second pass computes the rows of few pairs, with the same defect
    grid, G, _ = large
    expected = rotation_invariance_defect(build_auxiliary(G, G, grid, 1.0, 0.441))
    rows_per_pass = []
    stft_rows = identity._stft_rows

    def counted(f, g, grid):
        rows = stft_rows(f, g, grid)
        rows_per_pass.append(0)

        def counting(out, start):
            rows_per_pass[-1] += len(out)
            return rows(out, start)

        return counting

    monkeypatch.setattr(identity, "_stft_rows", counted)
    assert identity._streamed_rotation_defect(G, G, grid, 1.0, 0.441) == expected
    assert rows_per_pass[0] == 1024 and rows_per_pass[1] <= 1024 // 4, rows_per_pass


@pytest.mark.parametrize("row", [0, 3, 1020])
def test_rotation_check_keeps_a_gap_far_from_the_centre(monkeypatch, large, row):
    # the transform, perturbed at one node of an outer row by 1.5 times the
    # gap, must be compared there, on either side of the centre and at row 0
    # alone; the perturbation is then the largest gap, on both paths
    grid, G, _ = large
    aux = build_auxiliary(G, G, grid, 1.0, 0.441)
    plain = rotation_invariance_defect(aux)
    transform = core._fourier_2d_swapped

    def perturbed(grid, values, peak=None):
        swapped = transform(grid, values, peak)
        swapped[row, 7] += 1.5 * plain * peak
        return swapped

    monkeypatch.setattr(identity, "_fourier_2d_swapped", perturbed)
    expected = rotation_invariance_defect(aux)
    assert expected > plain
    assert identity._streamed_rotation_defect(G, G, grid, 1.0, 0.441) == expected


@pytest.mark.parametrize("layout, copied", [(DEFAULT_LAYOUT, True), (LARGE, False)])
def test_rotation_check_holds_two_fields_only_for_a_small_field(monkeypatch, layout, copied):
    # F_Z of 1 MiB (count 256) is built and transformed in a copy; of 16 MiB, streamed
    grid = TFGrid.from_layout(layout)
    G = tfu.sample(tfu.unit_gaussian(), layout)
    built = []
    monkeypatch.setattr(identity, "build_auxiliary", lambda *args: built.append(args) or build_auxiliary(*args))
    expected = rotation_invariance_defect(build_auxiliary(G, G, grid, 0.5, 0.25))
    assert identity._rotation_defect(G, G, grid, 0.5, 0.25) == expected
    assert len(built) == copied


def test_rotation_check_names_a_non_finite_node_in_f_z(monkeypatch):
    # a nan at node (200, 7) of V, in its lower half, is at (200, 7) of F_Z
    # and at the reflection (56, 249), the first in row-major order, which
    # the first pass meets in an upper block, before the lower
    grid = TFGrid.from_layout(DEFAULT_LAYOUT)
    G = default_bank()[0]
    stft_rows = identity._stft_rows

    def poisoned(f, g, grid):
        rows = stft_rows(f, g, grid)

        def poisoned_rows(out, start):
            out = rows(out, start)
            if start <= 200 < start + len(out):
                out[200 - start, 7] = np.nan
            return out

        return poisoned_rows

    monkeypatch.setattr(identity, "_stft_rows", poisoned)
    for check in (identity._streamed_rotation_defect, build_auxiliary):
        with pytest.raises(ValueError, match=r"^non-finite field value at node \(56, 249\)$"):
            check(G, G, grid, 0.5, 0.25)


def default_bank():
    """G, h1, h2, a wider Gaussian, and three copies of G: equal to it, but
    other objects. On the default layout the 256 rows go in blocks of 128
    rows split over the distinct pairs: 128, 64, 42 or 32 rows."""
    fns = (tfu.unit_gaussian(), tfu.hermite(1), tfu.hermite(2), tfu.unit_gaussian(2.0))
    bank = [tfu.sample(fn, DEFAULT_LAYOUT) for fn in fns]
    return bank + [SampledSignal(bank[0].samples, bank[0].step) for _ in range(3)]


@derandomized
@given(n=even_counts, seed=seeds, alone=st.booleans(), place=st.sampled_from([0, 0.5, 1]))
def test_rotation_gap_in_any_split_of_rows_equals_the_reflected_formula(n, seed, alone, place):
    # the compared rows come in blocks, in ascending and in shuffled order,
    # the block of row 0 (row 0 alone if alone) put first, in the middle or
    # last; row k of swapped meets row -k mod n of v
    swapped, v = random_complex(seed, (n, n)), random_complex(seed + 1, (n, n))
    expected = float(np.max(np.abs(swapped - point_reflection(v, 0))))
    rng = np.random.default_rng(seed)
    cuts = sorted({*rng.integers(1, n, size=3), *([1] if alone else [])})
    blocks = [(start, v[start:stop]) for start, stop in itertools.pairwise([0, *cuts, n])]
    shuffled = [blocks[i] for i in 1 + rng.permutation(len(blocks) - 1)]
    shuffled.insert(round(place * len(shuffled)), blocks[0])
    assert identity._rotation_gap(swapped.copy(), blocks) == expected
    assert identity._rotation_gap(swapped.copy(), shuffled) == expected
    assert identity._rotation_gap(swapped.copy(), [(0, v)]) == expected


def count_rows(monkeypatch):
    """Make identity's row sources count the rows they compute: the list
    returned gets [(id(f), id(g)), rows] for each source, in the order
    made, so the left product's sources come first."""
    made = []

    def counting(f, g, grid):
        rows = _stft_rows(f, g, grid)
        made.append([(id(f), id(g)), 0])
        count = made[-1]

        def counted_rows(out, start):
            count[1] += len(out)
            return rows(out, start)

        return counted_rows

    monkeypatch.setattr(identity, "_stft_rows", counting)
    return made


@pytest.mark.parametrize(
    "picks, pairs",
    [
        ((0, 0, 0, 0), 1),  # one pair, one product
        ((1, 0, 1, 1), 3),  # (h1, G, h1, h1): pairs (h1, h1), (G, h1), (h1, G)
        ((1, 2, 0, 3), 4),  # four distinct signals
        ((0, 4, 5, 6), 4),  # four equal signals, but four objects: sharing goes by identity
        ((1, 1, 0, 1), 3),  # (h1, h1, G, h1): (h1, h1) is b of the first product and a of the second
        ((1, 1, 0, 0), 3),  # (h1, h1, G, G): the first product is conj(V_G h1) V_G h1
    ],
)
def test_identity_computes_each_distinct_pair_once(monkeypatch, picks, pairs):
    """The left pass computes every row of each of its distinct pairs once,
    the right pass each row at most once: a pair that both sides use is
    computed in each pass."""
    bank = default_bank()
    grid = TFGrid.from_layout(DEFAULT_LAYOUT)
    f1, f2, g1, g2 = (bank[i] for i in picks)
    expected = copying_identity_defect(f1, f2, g1, g2, grid)
    made = count_rows(monkeypatch)
    assert fundamental_identity_defect(f1, f2, g1, g2, grid) == expected
    sides = [{(id(f2), id(g2)), (id(f1), id(g1))}, {(id(g1), id(g2)), (id(f1), id(f2))}]
    left, right = made[: len(sides[0])], made[len(sides[0]) :]
    assert [{pair for pair, _ in side} for side in (left, right)] == sides
    assert len(right) == len(sides[1])
    assert len({pair for pair, _ in made}) == pairs
    assert all(rows == DEFAULT_LAYOUT.count for _, rows in left)
    assert all(rows <= DEFAULT_LAYOUT.count for _, rows in right)


def test_identity_skips_the_right_blocks_that_cannot_reach_the_gap(monkeypatch, large):
    # the right product of (h1, G, h1, h1), and its largest gap, lie near
    # the centre: the right pass computes the rows of its two distinct pairs
    # in row N/2 and the mirrored pairs of blocks nearest it, with the same
    # defect; the left pass, every row. At N = 1024 that is eight pairs of
    # 16-row blocks, 257 of 1024 rows; at N = 256, the first pair of 64-row
    # blocks, 129 of 256
    default = TFGrid.from_layout(DEFAULT_LAYOUT), *default_bank()[:2]
    for (grid, G, h1), computed in [(large, 257), (default, 129)]:
        expected = copying_identity_defect(h1, G, h1, h1, grid)
        made = count_rows(monkeypatch)
        assert fundamental_identity_defect(h1, G, h1, h1, grid) == expected
        n = grid.x_count
        assert [rows for _, rows in made] == [n, n, computed, computed], made


@pytest.mark.parametrize("row", [0, 3, 1020])
def test_identity_keeps_a_gap_far_from_the_centre(monkeypatch, large, row):
    # the transform, perturbed at one node of an outer row by 1.5 times the
    # gap, must be compared there, on either side of the centre and at row 0
    # alone; the perturbation is then the largest gap, in both formulas
    grid, G, h1 = large
    plain = fundamental_identity_defect(h1, G, h1, h1, grid)
    transform = core._fourier_2d_swapped

    def perturbed(grid, values, peak=None):
        swapped = transform(grid, values, peak)
        swapped[row, 7] += 1.5 * plain * _max_abs(swapped)
        return swapped

    monkeypatch.setattr(core, "_fourier_2d_swapped", perturbed)
    monkeypatch.setattr(identity, "_fourier_2d_swapped", perturbed)
    expected = copying_identity_defect(h1, G, h1, h1, grid)
    assert expected > plain
    assert fundamental_identity_defect(h1, G, h1, h1, grid) == expected


def test_identity_keeps_a_right_row_far_from_the_centre(monkeypatch):
    # the transform, zeroed on its rows more than 64 from the centre, leaves
    # the right product's own rows there as the largest gap: its bound must
    # hold them, though the right pairs (V_G4 G4, V_G.25 G.25) decay at very
    # different rates, so neither pair's bound alone does
    grid = TFGrid.from_layout(LARGE)
    narrow, wide = (tfu.sample(tfu.unit_gaussian(a), LARGE) for a in (4, 0.25))
    plain = fundamental_identity_defect(narrow, narrow, wide, wide, grid)
    transform = core._fourier_2d_swapped

    def zeroed(grid, values, peak=None):
        swapped = transform(grid, values, peak)
        swapped[: 512 - 64], swapped[512 + 65 :] = 0, 0
        return swapped

    monkeypatch.setattr(core, "_fourier_2d_swapped", zeroed)
    monkeypatch.setattr(identity, "_fourier_2d_swapped", zeroed)
    expected = copying_identity_defect(narrow, narrow, wide, wide, grid)
    assert expected > 1000 * plain
    assert fundamental_identity_defect(narrow, narrow, wide, wide, grid) == expected


def test_centre_out_gap_keeps_what_a_skipped_pair_could_change(large):
    # the centre gives gap 1.9; a pair whose two sides are each below it but
    # whose difference is 2 must be compared, and so must a pair whose row
    # peaks above the scale, 1.2; the gap and scale are then the full pass's
    grid = large[0]
    swapped, v = (np.zeros(grid.shape, dtype=np.complex128) for _ in range(2))
    swapped[512, 5], v[512, 5] = 1.0, -0.9  # row r of v meets row -r mod N of swapped
    swapped[24, 9], v[1000, 9] = 1.0, -1.0
    v[100, 3] = 1.2
    bounds = np.max(np.abs(v), axis=1)

    def blocks(wanted):
        for spans in core._mirrored_spans(grid):
            if wanted(*spans):
                yield from ((a, v[a:b], bounds[a:b].max()) for a, b in spans)

    expected = identity._rotation_gap(swapped.copy(), [(0, v)]), 1.2
    assert expected == (2.0, 1.2)
    assert identity._centre_out_gap(swapped, core._finite_peak(swapped), bounds, blocks, 1.0) == expected


def bank_signals(layout, scales):
    """signals(layout), the complex window gaussian(1.5, 1 - 0.5j) among
    them, each scaled by one of the powers of two scales."""
    window = st.just(tfu.sample(tfu.gaussian(1.5, 1 - 0.5j), layout))
    rescaled = lambda s, k: SampledSignal(s.samples * k, s.step)  # noqa: E731
    return st.builds(rescaled, st.one_of(signals(layout), window), st.sampled_from(scales))


@pytest.mark.parametrize("layout, examples", [(DEFAULT_LAYOUT, 40), (LARGE, 12)])
def test_stft_row_bounds_hold(layout, examples):
    # every computed modulus of row j of V_g f is at most the row bound,
    # also where the column products and the transform reach the
    # subnormals (2^-500 and 2^-537 squared), or come near overflow
    grid = TFGrid.from_layout(layout)
    scaled = bank_signals(layout, [1.0, 2.0**-500, 2.0**-537, 2.0**500])

    @settings(derandomize=True, database=None, deadline=None, max_examples=examples)
    @given(f=scaled, g=scaled)
    def check(f, g):
        moduli = np.abs(compute_stft(f, g, grid).values)
        assert (np.max(moduli, axis=1) <= stft._stft_row_bounds(f, g)).all()

    check()


@pytest.mark.parametrize("layout, examples", [(DEFAULT_LAYOUT, 20), (LARGE, 10)])
def test_identity_keeps_its_bits_over_the_bank(layout, examples):
    # at both counts the right pass skips rows by the product of two row
    # bounds; the defect keeps the copying formula's bits, and a refusal its
    # message
    grid = TFGrid.from_layout(layout)
    scaled = bank_signals(layout, [1.0, 1.0, 2.0**-200, 2.0**200])

    @settings(derandomize=True, database=None, deadline=None, max_examples=examples)
    @given(bank=st.lists(scaled, min_size=2, max_size=3), picks=st.lists(st.integers(0, 2), min_size=4, max_size=4))
    def check(bank, picks):
        picked = [bank[i % len(bank)] for i in picks]
        expected = outcome(lambda: copying_identity_defect(*picked, grid))
        assert outcome(lambda: fundamental_identity_defect(*picked, grid)) == expected

    check()


def poison_rows(monkeypatch, poisons):
    """Make identity's row sources write, for each pair in poisons, its
    value at its node: poisons maps pair -> (node, value)."""

    def poisoned(f, g, grid):
        rows = _stft_rows(f, g, grid)

        def poisoned_rows(out, start):
            out = rows(out, start)
            if (f, g) in poisons:
                (row, col), value = poisons[f, g]
                if start <= row < start + len(out):
                    out[row - start, col] = value
            return out

        return poisoned_rows

    monkeypatch.setattr(identity, "_stft_rows", poisoned)


@pytest.mark.parametrize(
    "layout, pair, node",
    [(DEFAULT_LAYOUT, (0, 0), (128, 7)), (DEFAULT_LAYOUT, (2, 0), (200, 7)), (LARGE, (0, 0), (512, 7))],
    ids=["right", "left", "right-1024"],
)
def test_identity_names_a_non_finite_product_at_its_node(monkeypatch, layout, pair, node):
    # (h1, h2, G, G): the sides share no pair; (G, G) is the right side's,
    # streamed against the transform, and (h2, G) the left side's. Were a
    # nan in the left product let through, the decay check would pass it
    # and the transform's check would name a node of the transform instead.
    # The right nan is planted in row N/2, which the right pass computes
    # first: a row it skips has a finite bound from the samples, so only a
    # patched row source can put a nan there
    G, h1, h2 = bank = [tfu.sample(fn, layout) for fn in (tfu.unit_gaussian(), tfu.hermite(1), tfu.hermite(2))]
    poison_rows(monkeypatch, {tuple(bank[i] for i in pair): (node, np.nan)})
    with pytest.raises(ValueError, match=r"^non-finite field value at node \(%d, %d\)$" % node):
        fundamental_identity_defect(h1, h2, G, G, TFGrid.from_layout(layout))


def test_identity_checks_the_left_decay_before_the_right_finiteness(monkeypatch):
    # (h1, h2, G, G) again: the left product is large at an edge node, and
    # the right one, formed only after the left is transformed, holds a nan
    G, h1, h2 = default_bank()[:3]
    edge = ((128, 0), 1e3)
    poison_rows(monkeypatch, {(h1, G): edge, (h2, G): edge, (G, G): ((200, 7), np.nan)})
    with pytest.raises(ValueError, match=r"^truncation unsound: "):
        fundamental_identity_defect(h1, h2, G, G, TFGrid.from_layout(DEFAULT_LAYOUT))


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
    assert np.max(np.abs(chirp(grid, sign, half) - expected)) <= bound


def test_chirp_table_is_bounded_by_the_grid():
    # M = 10^12, but the table holds only the 2Q + 1 = 129 values of j'k'
    grid = TFGrid(x_step=1e-6, xi_step=1e-6, x_count=16, xi_count=16)
    x, xi = grid.meshgrid()
    assert np.max(np.abs(chirp(grid, 1) - np.exp(2j * np.pi * x * xi))) <= 2.0**-50


#: The test bank's (f, g) specs, as a config names them
BANK_PAIRS = [(f"gaussian:a={a}", g) for a in ("0.5", "1", "2") for g in ("gaussian:a=1", "hermite:n=1", "hermite:n=2")]


def scenario(f_text, g_text, layout, checks):
    """A scenario as load_config builds it, with fhat sampled for pair_exact."""
    f_spec, g_spec = function_spec(f_text), function_spec(g_text)
    options = {name: key.default for name, key in cli._KEYS.items()} | {"f": f_spec, "g": g_spec, "checks": checks}
    signals = {spec.text: tfu.sample(spec.fn, layout) for spec in (f_spec, g_spec)}
    fhat = tfu.sample(tfu.fourier_closed_form(f_spec.fn), layout.dual())
    return Scenario("s", layout, options, signals, fhat)


@settings(derandomize=True, database=None, deadline=None, max_examples=20)
@given(pair=st.sampled_from(BANK_PAIRS), layout=st.sampled_from([DEFAULT_LAYOUT, LARGE]), paired=st.booleans())
def test_context_moduli_equal_the_whole_fields(pair, layout, paired):
    # the context fills each modulus from row blocks of the field's row
    # source; with closed_form enabled, stft and closed in one pass
    scn = scenario(*pair, layout, ("closed_form", "weights") if paired else ("weights",))
    ctx = ScenarioContext(scn)
    f, g = (scn.signals[text] for text in pair)
    grid = TFGrid.from_layout(layout)
    v, closed = compute_stft(f, g, grid), tfu.gaussian_stft_field(grid)
    fields = {
        "stft": v,
        "closed": closed,
        "pair": tfu.pair_field(f),
        "pair_exact": tfu.pair_field(f, scn.fhat),
    }
    for name, field in fields.items():
        modulus = getattr(ctx, name)
        assert modulus.grid == field.grid, name
        assert not modulus.values.flags.writeable
        assert same_bits(modulus.magnitude, np.abs(field.values)), name
    assert same_bits(ctx.stft.descending, v.descending)
    if paired:
        assert ctx.closed_deviation == _max_abs(v.values, closed.values)


#: Every row source, with its arguments: the chirps by sign and half
SOURCE_KINDS = ["stft", "gaussian", "pair", "pair-fhat", (1, False), (-1, False), (1, True), (-1, True)]
#: the planes of the default and the large layout, where the bank decays
PLANES = st.sampled_from([DEFAULT_LAYOUT, LARGE])
#: (kind, layout): a chirp on any dual layout, the other sources on PLANES
source_cases = st.sampled_from(SOURCE_KINDS).flatmap(
    lambda kind: st.tuples(st.just(kind), PLANES | dual_layouts if isinstance(kind, tuple) else PLANES)
)


def row_source(kind, layout, pair):
    """The grid and row source of kind on layout, with the signals of the bank pair."""
    grid = TFGrid.from_layout(layout)
    if isinstance(kind, tuple):
        return grid, _chirp_rows(grid, *kind)
    if kind == "gaussian":
        return grid, _gaussian_rows(grid)
    scn = scenario(*pair, layout, ())
    f, g = (scn.signals[text] for text in pair)
    if kind == "stft":
        return grid, _stft_rows(f, g, grid)
    return _pair_rows(f, scn.fhat if kind == "pair-fhat" else None)


def every_kind(test):
    """test, with one example of each row source on the large plane."""
    for i, kind in enumerate(SOURCE_KINDS):
        test = example(case=(kind, LARGE), pair=BANK_PAIRS[i], seed=i)(test)
    return test


@every_kind
@derandomized
@given(case=source_cases, pair=st.sampled_from(BANK_PAIRS), seed=seeds)
def test_row_sources_in_any_split_equal_the_whole_field(case, pair, seed):
    # a source writes every node of its block: a nan left anywhere shows
    grid, rows = row_source(*case, pair)
    whole = _fill(grid, rows)
    n = grid.x_count
    cuts = np.random.default_rng(seed).integers(0, n + 1, size=4)
    out = np.full(grid.shape, np.nan, dtype=np.complex128)
    for start, stop in itertools.pairwise([0, *sorted([*cuts, cuts[0]]), n]):  # one empty block at least
        rows(out[start:stop], start)
    assert same_bits(out, whole)


@pytest.mark.parametrize("fill", ["compute_stft", "gaussian_stft_field", "pair_field", "chirp"])
def test_whole_plane_fill_peak_memory_is_the_field(large, fill):
    # the field, F = 16 MiB, and one block of rows of temporaries
    grid, G, h1 = large
    calls = {
        "compute_stft": lambda: compute_stft(G, h1, grid),
        "gaussian_stft_field": lambda: tfu.gaussian_stft_field(grid),
        "pair_field": lambda: tfu.pair_field(h1),
        "chirp": lambda: chirp(grid, 1),
    }
    assert traced_peak(calls[fill]) <= 1.1 * 16 * 2**20
