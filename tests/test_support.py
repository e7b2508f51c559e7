import itertools
import math

import mpmath
import numpy as np
import pytest

import tfu
from tfu.core import TFArray, TFGrid
from tfu.support import SupportMode, SupportVariant, sorted_cell_masses


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
    assert tfu.quadrature_sum(v, lambda z: np.abs(z) ** 4) == pytest.approx(0.5, abs=1e-10)
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
    total = tfu.quadrature_sum(v, lambda z: np.abs(z) ** 1.5)
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


def test_greedy_prefix_is_optimal_exactly():
    # any size-k cell set has at most the mass of the first k sorted cells;
    # both sides summed in the same canonical order makes this exact
    rng = np.random.default_rng(42)
    grid = TFGrid(x_step=1.0, xi_step=1.0, x_count=8, xi_count=8)
    for _ in range(5):
        field = TFArray(grid=grid, values=rng.random((8, 8)).astype(complex))
        _, masses = sorted_cell_masses(field, p=1.0)
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
