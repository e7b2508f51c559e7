import itertools
import math
import re

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import tfu
from tfu import _kernels, cli
from tfu.core import _SUM_BLOCK, TFArray, TFGrid, _norm_scale, _plane_sum
from tfu.support import SupportMode, SupportVariant, _prefix_cells, sorted_cell_masses


def mode(variant, p, eps):
    return SupportMode(variant, p=p, epsilon=eps)


def gaussian_disc_area(eps):
    """Smallest measure capturing a (1-eps) fraction of the plane L1 mass of
    the Gaussian-pair STFT: the radial mass law 2 (1 - exp(-pi r^2 / 2))
    solved for the threshold (1-eps) gives area 2 ln(2 / (1+eps))."""
    return 2 * math.log(2 / (1 + eps))


# ---------------------------------------------------------------------------
# Lp ratios


def test_ratio_is_one_at_p_two(bank_pairs, bank_stfts):
    for name, f, g in bank_pairs:
        ratio = tfu.lieb_ratio(bank_stfts[name], 2.0, f.l2_norm(), g.l2_norm())
        assert ratio == pytest.approx(1.0, abs=1e-8), name


def test_gaussian_pair_extremal_at_p_four(unit_pair, grid):
    # closed form: integral of |V|^4 = integral exp(-2 pi (x^2+xi^2)) = 1/2,
    # exactly (2/4)^1 times the norm product
    f, g = unit_pair
    v = tfu.compute_stft(f, g, grid)
    assert _plane_sum(grid, np.abs(v.values) ** 4) == pytest.approx(0.5, abs=1e-10)
    assert tfu.lieb_ratio(v, 4.0, 1.0, 1.0) == pytest.approx(1.0, abs=1e-6)


@pytest.mark.parametrize("amplitude", [1e-100, 1e100])
@pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 4.0, 6.0])
def test_ratio_survives_extreme_norms(layout, grid, unit_pair, amplitude, p):
    # (fn gn)^p and |V|^p under- or overflow for such amplitudes; the ratio
    # does not depend on the amplitude
    f = tfu.sample(tfu.gaussian(1.0, amplitude=2**0.25 * amplitude), layout)
    g = unit_pair[1]
    ratio = tfu.lieb_ratio(tfu.compute_stft(f, g, grid), p, f.l2_norm(), g.l2_norm())
    unit = tfu.lieb_ratio(tfu.compute_stft(*unit_pair, grid), p, g.l2_norm(), g.l2_norm())
    assert ratio == pytest.approx(unit, rel=1e-13)
    assert ratio == pytest.approx(1.0, abs=1e-6)


def test_ratio_directions_for_hermite_window(layout, grid, bank_stfts):
    v = bank_stfts["g1-h1"]
    assert tfu.lieb_ratio(v, 4.0, 1.0, 1.0) <= 1.0
    assert tfu.lieb_ratio(v, 1.5, 1.0, 1.0) >= 1.0


@pytest.mark.parametrize(
    "amplitude, gn, message",
    [
        (1.0, 1.0, "the |V|^p sum (0) or its reference"),  # |V|^p underflows
        (1.0, 0.9, "underflows to 0"),  # so does (gn 2^-k)^p
        (1.0, 1.2, "the reference (2/p) (|f| |g|)^p overflows"),
        (1.3, 1.0, "non-finite integrand value at node"),  # |V|^p overflows where |V| 2^-k > 1
    ],
)
def test_ratio_refuses_p_beyond_the_float_range(layout, grid, unit_pair, amplitude, gn, message):
    f = tfu.sample(tfu.gaussian(1.0, amplitude=2**0.25 * amplitude), layout)
    v = tfu.compute_stft(f, unit_pair[1], grid)
    with pytest.raises(ValueError, match=r"^p = 1e\+300: .*" + re.escape(message)):
        tfu.lieb_ratio(v, 1e300, amplitude, gn)


def test_ratio_rejects_zero_norms(closed_field):
    with pytest.raises(ValueError, match="degenerate pair"):
        tfu.lieb_ratio(closed_field, 2.0, 0.0, 1.0)


# ---------------------------------------------------------------------------
# closed-form bounds


def test_bound_l1_fraction_unit_case():
    assert tfu.lower_bound(mode(SupportVariant.L1_FRACTION, 2.0, 0.0), d=1) == 1.0


def test_bound_lp_vs_l1p_recovers_integer_case():
    assert tfu.lower_bound(mode(SupportVariant.LP_VS_L1P, 1.0, 0.0), d=1) == 4.0


def test_bound_l1_fraction_high_precision_oracle():
    # (0.9)^{4/3} * 2^{1/3} evaluated at 50 digits
    with mpmath.workdps(50):
        expected = float(
            mpmath.mpf("0.9") ** (mpmath.mpf(4) / 3) * mpmath.mpf(2) ** (mpmath.mpf(1) / 3)
        )
    value = tfu.lower_bound(mode(SupportVariant.L1_FRACTION, 4.0, 0.1), d=1)
    assert value == pytest.approx(expected, rel=1e-15)
    assert value == pytest.approx(1.0947, abs=1e-4)


@pytest.mark.parametrize("d", [1, 3])
@pytest.mark.parametrize("eps", [0.0, 0.25])
@pytest.mark.parametrize(
    "variant, p",
    [
        (SupportVariant.L1_FRACTION, 2.0),
        (SupportVariant.L1_FRACTION, 3.5),
        (SupportVariant.LP_VS_L1P, 1.0),
        (SupportVariant.LP_VS_L1P, 1.5),
        (SupportVariant.LP_VS_L1P, 1.9),
    ],
)
def test_bound_keeps_closed_form_bits(variant, p, eps, d):
    if variant is SupportVariant.L1_FRACTION:
        expected = (1 - eps) ** (p / (p - 1)) * (p / 2) ** (d / (p - 1))
    else:
        expected = 2 ** (2 * p * d / (2 - p)) * (1 - eps) ** (2 / (2 - p))
    assert tfu.lower_bound(mode(variant, p, eps), d=d) == expected


def test_bound_with_overflowing_factor_is_finite():
    # 2^(2pd/(2-p)) = 2^1194 overflows; the bound, 2^1194 * 0.5^200 = 2^994, does not
    value = tfu.lower_bound(mode(SupportVariant.LP_VS_L1P, 1.99, 0.5), d=3)
    with mpmath.workdps(50):
        p = mpmath.mpf(1.99)
        expected = float(2 ** (6 * p / (2 - p)) * mpmath.mpf(0.5) ** (2 / (2 - p)))
    assert value == pytest.approx(expected, rel=1e-12)
    # 2^39998 * 0.1^20000 is about 2^-26440, which rounds to 0
    assert tfu.lower_bound(mode(SupportVariant.LP_VS_L1P, 1.9999, 0.9), d=1) == 0.0


def test_bound_beyond_float_range_is_refused():
    with pytest.raises(ValueError, match="l1_fraction bound for p=3, eps=0, d=100000 exceeds"):
        tfu.lower_bound(mode(SupportVariant.L1_FRACTION, 3.0, 0.0), d=100000)


def test_bound_energy_variant():
    assert tfu.lower_bound(mode(SupportVariant.LP_VS_ENERGY, 3.0, 0.25), d=2) == 0.75


def test_mode_validation():
    with pytest.raises(ValueError, match="p out of range for the Lp-vs-L1"):
        mode(SupportVariant.LP_VS_L1P, 2.0, 0.0)
    with pytest.raises(ValueError, match="p out of range for the L1-fraction"):
        mode(SupportVariant.L1_FRACTION, 1.5, 0.0)
    with pytest.raises(ValueError, match="epsilon"):
        mode(SupportVariant.LP_VS_ENERGY, 1.0, 1.0)


# ---------------------------------------------------------------------------
# greedy estimation


def test_greedy_matches_analytic_disc(unit_pair, grid):
    f, g = unit_pair
    v = tfu.compute_stft(f, g, grid)
    eps = math.exp(-2)
    report = tfu.greedy_essential_support(
        v, mode(SupportVariant.L1_FRACTION, 2.0, eps), 1.0, 1.0
    )
    assert report.satisfiable
    assert abs(report.measured_area - gaussian_disc_area(eps)) <= 2 * grid.cell_measure


def test_greedy_unsatisfiable_threshold(unit_pair, grid):
    # total |V|^1.5 mass is 2/1.5, below 0.9 * 2^1.5: no set can qualify
    f, g = unit_pair
    v = tfu.compute_stft(f, g, grid)
    total = _plane_sum(grid, np.abs(v.values) ** 1.5)
    assert total == pytest.approx(2 / 1.5, abs=1e-10)
    assert total < 0.9 * 2.0**1.5
    report = tfu.greedy_essential_support(
        v, mode(SupportVariant.LP_VS_L1P, 1.5, 0.1), 1.0, 1.0
    )
    assert not report.satisfiable
    assert report.measured_area is None
    assert report.bound_holds is None


def test_greedy_energy_variant_zero_eps(unit_pair, grid):
    f, g = unit_pair
    v = tfu.compute_stft(f, g, grid)
    report = tfu.greedy_essential_support(
        v, mode(SupportVariant.LP_VS_ENERGY, 1.0, 0.0), 1.0, 1.0
    )
    assert report.satisfiable
    assert report.measured_area >= report.lower_bound == 1.0
    assert report.measured_area == pytest.approx(gaussian_disc_area(0.0), abs=2 * grid.cell_measure)


def test_greedy_area_monotone_in_epsilon(unit_pair, grid):
    f, g = unit_pair
    v = tfu.compute_stft(f, g, grid)
    areas = [
        tfu.greedy_essential_support(
            v, mode(SupportVariant.L1_FRACTION, 2.0, eps), 1.0, 1.0
        ).measured_area
        for eps in (0.0, 0.1, 0.2, 0.3, 0.4)
    ]
    assert all(a >= b for a, b in zip(areas, areas[1:]))


def test_greedy_deterministic_under_ties(grid):
    flat = TFArray(grid=grid, values=np.ones(grid.shape, dtype=complex))
    m = mode(SupportVariant.LP_VS_ENERGY, 1.0, 0.5)
    r1 = tfu.greedy_essential_support(flat, m, 1.0, 1.0)
    r2 = tfu.greedy_essential_support(flat, m, 1.0, 1.0)
    assert r1.cells == r2.cells


def test_greedy_rejects_zero_field(grid):
    zero = TFArray(grid=grid, values=np.zeros(grid.shape, dtype=complex))
    with pytest.raises(ValueError, match="identically zero"):
        tfu.greedy_essential_support(zero, mode(SupportVariant.LP_VS_ENERGY, 1.0, 0.0), 1.0, 1.0)


def fewest_cells_reaching(level_masses, counts, threshold):
    """The smallest k for which some k-cell subset's masses, summed in
    descending order, reach threshold; None if no subset does.

    level_masses are the distinct masses, descending, and counts how many
    cells carry each. Cells of one level have bit-equal masses, so a subset's
    descending sum depends only on how many cells it takes of each level:
    enumerating those count vectors enumerates every subset's sum. Each
    level's sums extend the previous levels' partial sums one cell at a time.
    """
    best = None
    partial = [(0, 0.0)]  # (cells, descending sum) of the count vectors so far
    for mass, count in zip(level_masses, counts):
        extended = []
        for cells, total in partial:
            for taken in range(count + 1):
                extended.append((cells + taken, total))
                total += mass
        partial = extended
    for cells, total in partial:
        if total >= threshold and (best is None or cells < best):
            best = cells
    return best


#: p of each variant, from a draw u in [0, 1), inside the range its bound accepts
_VARIANT_P = {
    SupportVariant.L1_FRACTION: lambda u: 2 + 4 * u,
    SupportVariant.LP_VS_L1P: lambda u: 1 + 0.9 * u,  # the bound overflows as p nears 2
    SupportVariant.LP_VS_ENERGY: lambda u: 1 + 5 * u,
}


@pytest.mark.parametrize("variant", list(SupportVariant), ids=lambda v: v.value)
@settings(derandomize=True, database=None, deadline=None, max_examples=120)
@given(
    shape=st.tuples(st.sampled_from([4, 6]), st.sampled_from([4, 6])),
    step=st.sampled_from([0.25, 0.5, 1.0]),
    levels=st.lists(st.floats(0.0, 2.0), min_size=1, max_size=4, unique=True),
    u=st.floats(0.0, 1.0, exclude_max=True),
    eps=st.floats(0.0, 0.95),
    gn=st.floats(0.75, 1.4),
    data=st.data(),
)
def test_greedy_support_equals_brute_force(variant, shape, step, levels, u, eps, gn, data):
    # every cell takes one of a few magnitudes, so ties are forced; phases
    # of 1, -1, 1j, -1j leave |V| exact. With fn = 1 and gn near 1 the norm
    # scale is 2^0, and the threshold is (1 - eps) reference^mass_p
    cells = shape[0] * shape[1]
    which = data.draw(st.lists(st.integers(0, len(levels) - 1), min_size=cells, max_size=cells))
    phases = data.draw(st.lists(st.sampled_from([1, -1, 1j, -1j]), min_size=cells, max_size=cells))
    magnitudes = np.array([levels[i] for i in which])
    assume(magnitudes.any())
    grid = TFGrid(x_step=step, xi_step=step, x_count=shape[0], xi_count=shape[1])
    v = TFArray(grid=grid, values=(magnitudes * np.array(phases)).reshape(shape))
    m = mode(variant, _VARIANT_P[variant](u), eps)
    mass_p = 1.0 if variant is SupportVariant.L1_FRACTION else m.p
    assert _norm_scale(1.0, gn) == (0, gn)
    if variant is SupportVariant.LP_VS_L1P:
        reference = grid.cell_measure * tfu.pairwise_sum(np.abs(v.values))
    else:
        reference = gn
    threshold = (1 - eps) * reference**mass_p
    distinct = sorted(set(magnitudes.tolist()), reverse=True)
    level_masses = grid.cell_measure * np.array(distinct) ** mass_p
    counts = [int(np.count_nonzero(magnitudes == level)) for level in distinct]
    expected = fewest_cells_reaching(level_masses.tolist(), counts, threshold)
    report = tfu.greedy_essential_support(v, m, 1.0, gn)
    assert report.satisfiable is (expected is not None)
    assert report.cells == (expected or 0)
    if expected is not None:
        assert report.measured_area == expected * grid.cell_measure


@pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0])
def test_sorted_cell_masses_match_a_stable_argsort_bit_for_bit(p):
    rng = np.random.default_rng(7)
    for n in (64, 384):  # one block of masses, and 2.25 blocks
        grid = TFGrid(x_step=1.0 / 16, xi_step=1.0 / 16, x_count=n, xi_count=n)
        values = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        values[::3, ::5] = values[1, 2]  # ties
        field = TFArray(grid=grid, values=values)
        flat = np.abs(values).ravel()
        gathered = grid.cell_measure * flat[np.argsort(-flat, kind="stable")] ** p
        blocks = list(sorted_cell_masses(field, p))
        assert [b.size for b in blocks[:-1]] == [_SUM_BLOCK] * (len(blocks) - 1)
        assert np.concatenate(blocks).tobytes() == gathered.tobytes()


@pytest.fixture(scope="module")
def multi_block_field():
    """A 512 x 512 field: its 2^18 cells are four blocks of masses. Its
    moduli lie in [0.5, 1.5), so every mass still moves the running sum."""
    rng = np.random.default_rng(11)
    grid = TFGrid(x_step=1.0 / 16, xi_step=1.0 / 16, x_count=512, xi_count=512)
    return TFArray(grid=grid, values=(rng.random((512, 512)) + 0.5) * np.exp(2j * np.pi * rng.random((512, 512))))


@pytest.mark.parametrize("p", [1.0, 2.5])
@pytest.mark.parametrize(
    "cells",
    [
        1,  # in the first block
        1000,
        _SUM_BLOCK - 1,
        _SUM_BLOCK,  # the first block's last cell
        _SUM_BLOCK + 1,  # the second block's first cell
        2 * _SUM_BLOCK,
        3 * _SUM_BLOCK + 12345,  # in the last block
        4 * _SUM_BLOCK,  # the last cell
        None,  # beyond the total: never reached
    ],
)
def test_prefix_cells_in_blocks_equal_the_whole_array_count(multi_block_field, p, cells):
    v = multi_block_field
    masses = np.concatenate(list(sorted_cell_masses(v, p)))
    sums = np.cumsum(masses)
    threshold = np.nextafter(sums[-1], np.inf) if cells is None else sums[cells - 1]
    expected = _kernels.prefix_count(masses, threshold)
    assert expected == (-1 if cells is None else cells)
    assert _prefix_cells(v, p, 0, threshold) == expected


def test_greedy_prefix_is_optimal_exactly():
    # any size-k cell set has at most the mass of the first k sorted cells;
    # both sides summed in the same canonical order makes this exact
    rng = np.random.default_rng(42)
    grid = TFGrid(x_step=1.0, xi_step=1.0, x_count=8, xi_count=8)
    for _ in range(5):
        field = TFArray(grid=grid, values=rng.random((8, 8)).astype(complex))
        masses = np.concatenate(list(sorted_cell_masses(field, p=1.0)))
        vals = list(masses)
        for k in (1, 2, 3):
            greedy = 0.0
            for x in vals[:k]:
                greedy += x
            best = max(
                sum(vals[i] for i in combo)
                for combo in itertools.combinations(range(len(vals)), k)
            )
            assert best == greedy


# ---------------------------------------------------------------------------
# sweeps


def test_sweep_l1_fraction_grid(unit_pair, grid):
    f, g = unit_pair
    modes = [
        mode(SupportVariant.L1_FRACTION, p, eps)
        for p in (2.0, 3.0, 4.0)
        for eps in (0.0, 0.1, 0.25)
    ]
    reports = tfu.bound_sweep(f, g, grid, modes)
    assert len(reports) == 9
    for report in reports:
        assert report.satisfiable and report.bound_holds
        assert report.measured_area >= report.lower_bound


def test_sweep_records_unsatisfiable_instead_of_raising(unit_pair, grid):
    # total |V|^3 = 2/3 < 1 = threshold at eps 0
    f, g = unit_pair
    reports = tfu.bound_sweep(f, g, grid, [mode(SupportVariant.LP_VS_ENERGY, 3.0, 0.0)])
    assert len(reports) == 1 and not reports[0].satisfiable


def test_sweep_empty_modes(unit_pair, grid):
    f, g = unit_pair
    assert tfu.bound_sweep(f, g, grid, []) == []


#: The support modes of the bundled suite.
SUITE_MODES = [
    m for scn in cli.load_config(cli._resolve_config("paper-suite")) for m, _ in scn.options["support"]
]


def test_sweep_reports_equal_those_of_the_complex_field(bank_pairs, bank_stfts, grid):
    # the sweep reads |V| from a modulus; its reports are those of the field
    for name, f, g in bank_pairs:
        v = bank_stfts[name]
        fn, gn = f.l2_norm(), g.l2_norm()
        assert tfu.bound_sweep(f, g, grid, SUITE_MODES) == [tfu.greedy_essential_support(v, m, fn, gn) for m in SUITE_MODES]


@pytest.mark.parametrize("amplitude", [1e-100, 1e100])
def test_greedy_support_is_amplitude_invariant(layout, grid, unit_pair, amplitude):
    # (fn gn)^p, |V|^p and the thresholds under- or overflow at these
    # amplitudes unless scaled
    g = unit_pair[1]

    def verdicts(amp):
        f = tfu.sample(tfu.gaussian(1.0, amplitude=amp), layout)
        v = tfu.compute_stft(f, g, grid)
        reports = [tfu.greedy_essential_support(v, m, f.l2_norm(), g.l2_norm()) for m in SUITE_MODES]
        return [(r.cells, r.satisfiable) for r in reports]

    assert len(SUITE_MODES) == 13
    assert verdicts(amplitude) == verdicts(1.0)


def test_greedy_support_sorts_the_callers_field(monkeypatch, layout, grid, unit_pair):
    # at amplitude 1e100 the norm scale k is not 0; every mode must still
    # take its masses from the caller's field, whose sort is shared
    g = unit_pair[1]
    f = tfu.sample(tfu.gaussian(1.0, amplitude=1e100), layout)
    v = tfu.compute_stft(f, g, grid)
    assert _norm_scale(f.l2_norm(), g.l2_norm())[0] != 0
    received = []

    def record(field, *args):
        received.append(field)
        return sorted_cell_masses(field, *args)

    monkeypatch.setattr("tfu.support.sorted_cell_masses", record)
    for m in SUITE_MODES:
        tfu.greedy_essential_support(v, m, f.l2_norm(), g.l2_norm())
    assert len(received) == 13 and all(field is v for field in received)
