import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import tfu
from tfu.core import TFArray, TFGrid
from tfu.weights import CONVERGENCE_RADII, DIVERGENCE_RADII, WeightFamily, WeightSpec


def spec(family, p=1.0, N=0.0):
    return WeightSpec(family, p=p, N=N)


def fine_grid_field():
    """Closed-form Gaussian-pair STFT on a twice-finer lattice: the
    independent quadrature oracle for mass and slope values."""
    fine = TFGrid(x_step=1.0 / 32, xi_step=1.0 / 32, x_count=512, xi_count=512)
    return tfu.gaussian_stft_field(fine)


def fitted_slope(field, w, radii):
    return tfu.growth_scan(field, w, radii).fitted_exponent


# ---------------------------------------------------------------------------
# weighted_mass


def test_radial_half_mass_is_square_area(closed_field):
    # |V| exp(pi (x^2+xi^2)/2) = 1, so I(R) is the half-open square measure
    w = spec(WeightFamily.RADIAL_HALF)
    assert tfu.weighted_mass(closed_field, w, 4.0) == pytest.approx(64.0, abs=0.5)
    for r in (1.0, 2.0, 3.0):
        assert tfu.weighted_mass(closed_field, w, r) == pytest.approx((2 * r) ** 2, abs=1e-9)


def test_radial_half_mass_numeric_field(unit_pair, grid):
    f, g = unit_pair
    v = tfu.compute_stft(f, g, grid)
    assert tfu.weighted_mass(v, spec(WeightFamily.RADIAL_HALF), 4.0) == pytest.approx(64.0, abs=0.5)


def test_zero_field_mass_vanishes(grid):
    zero = TFArray(grid=grid, values=np.zeros(grid.shape, dtype=complex))
    for r in (1.0, 4.0, 8.0):
        assert tfu.weighted_mass(zero, spec(WeightFamily.HYPERBOLIC), r) == 0.0


def test_hyperbolic_mass_grows_linearly(closed_field):
    # integrand exp(-pi (|x|-|xi|)^2 / 2) concentrates on the diagonal strip
    w = spec(WeightFamily.HYPERBOLIC)
    slope = fitted_slope(closed_field, w, DIVERGENCE_RADII)
    assert slope == pytest.approx(1.0, abs=0.15)
    oracle = fitted_slope(fine_grid_field(), w, DIVERGENCE_RADII)
    assert slope == pytest.approx(oracle, abs=0.02)


def test_radial_full_mass_at_grid_edge_matches_fsum(closed_field):
    # |V|^2 exp(2 pi (x^2+xi^2)) = exp(pi (x^2+xi^2)), about 1e175 at the
    # corner, although the weight alone (about 1e349) is beyond the float range
    w = spec(WeightFamily.RADIAL_FULL, p=2.0)
    x = closed_field.grid.x_nodes()
    oracle = math.fsum(math.exp(math.pi * (a * a + b * b)) for a in x for b in x) / 256
    assert tfu.weighted_mass(closed_field, w, 8.0) == pytest.approx(oracle, rel=1e-12)


def test_infinite_mass_is_rejected_without_warning(closed_field):
    # |V|^4 exp(4 pi (x^2+xi^2)) = exp(2 pi (x^2+xi^2)) is about 1e349 at the
    # corner: a true overflow, reported as an error rather than a RuntimeWarning
    with warnings.catch_warnings(), pytest.raises(ValueError, match="non-finite integrand value at node"):
        warnings.simplefilter("error")
        tfu.weighted_mass(closed_field, spec(WeightFamily.RADIAL_FULL, p=4.0), 8.0)


def test_mass_rejects_radius_beyond_grid(closed_field):
    with pytest.raises(ValueError, match="exceeds grid half-extent"):
        tfu.weighted_mass(closed_field, spec(WeightFamily.HYPERBOLIC), 9.0)


def test_mass_monotone_in_radius_exactly(bank_stfts):
    v = bank_stfts["g1-h2"]
    for w in (
        spec(WeightFamily.RADIAL_HALF),
        spec(WeightFamily.HYPERBOLIC, p=2.0),
        spec(WeightFamily.DEMANGE_DENOMINATOR, N=1.0),
    ):
        masses = [tfu.weighted_mass(v, w, r) for r in np.arange(0.5, 8.5, 0.5)]
        assert all(a <= b for a, b in zip(masses, masses[1:]))


def test_hyperbolic_never_exceeds_radial_half(bank_stfts):
    # |x xi| <= (x^2 + xi^2)/2 pointwise, so the masses order the same way
    for name, v in bank_stfts.items():
        for p in (1.0, 2.0):
            for r in (2.0, 4.0, 6.0):
                hyp = tfu.weighted_mass(v, spec(WeightFamily.HYPERBOLIC, p=p), r)
                rad = tfu.weighted_mass(v, spec(WeightFamily.RADIAL_HALF, p=p), r)
                assert hyp <= rad, (name, p, r)


def test_weight_spec_validation():
    with pytest.raises(ValueError, match="p must be >= 1"):
        WeightSpec(WeightFamily.RADIAL_HALF, p=0.5)
    with pytest.raises(ValueError, match="N must be >= 0"):
        WeightSpec(WeightFamily.BONAMI_DENOMINATOR, N=-1.0)


# ---------------------------------------------------------------------------
# pair masses


def test_pair_hyperbolic_strip_growth(exact_transform_pair):
    # |f fhat| exp(2 pi |x xi|) = sqrt(2) exp(-pi (|x|-|xi|)^2): linear growth
    f, fhat = exact_transform_pair
    w = spec(WeightFamily.PAIR_HYPERBOLIC)
    report = tfu.growth_scan(tfu.pair_field(f, fhat), w, DIVERGENCE_RADII)
    assert report.verdict == "divergent"
    assert report.fitted_exponent == pytest.approx(1.0, abs=0.15)


def test_pair_radial_full_squared_is_constant(exact_transform_pair):
    # |f(x) fhat(xi)|^2 exp(2 pi (x^2+xi^2)) = 2 for the unit Gaussian
    pair = tfu.pair_field(*exact_transform_pair)
    w = spec(WeightFamily.RADIAL_FULL, p=2.0)
    for r in (2.0, 4.0, 6.0):
        mass = tfu.weighted_mass(pair, w, r)
        assert mass == pytest.approx(2.0 * (2 * r) ** 2, rel=1e-10)
    report = tfu.growth_scan(pair, w, DIVERGENCE_RADII)
    assert report.verdict == "divergent"
    assert report.fitted_exponent == pytest.approx(2.0, abs=0.1)


def test_pair_mass_default_transform_agrees_at_small_radius(exact_transform_pair):
    # inside |xi| ~ 3 the numeric transform is far above its noise floor,
    # so the contract path (discrete_fourier) matches the exact one
    f, fhat = exact_transform_pair
    w = spec(WeightFamily.BONAMI_DENOMINATOR, N=2.0)
    numeric = tfu.weighted_mass(tfu.pair_field(f), w, 2.0)
    exact = tfu.weighted_mass(tfu.pair_field(f, fhat), w, 2.0)
    assert numeric == pytest.approx(exact, rel=1e-9)


def test_bonami_threshold_dichotomy(exact_transform_pair):
    pair = tfu.pair_field(*exact_transform_pair)
    conv = tfu.growth_scan(pair, spec(WeightFamily.BONAMI_DENOMINATOR, N=2.0), CONVERGENCE_RADII)
    div = tfu.growth_scan(pair, spec(WeightFamily.BONAMI_DENOMINATOR, N=0.5), CONVERGENCE_RADII)
    assert conv.verdict == "convergent"
    assert div.verdict == "divergent"


def test_demange_threshold_dichotomy(closed_field):
    conv = tfu.growth_scan(closed_field, spec(WeightFamily.DEMANGE_DENOMINATOR, N=2.0), CONVERGENCE_RADII)
    div = tfu.growth_scan(closed_field, spec(WeightFamily.DEMANGE_DENOMINATOR, N=0.5), CONVERGENCE_RADII)
    assert conv.verdict == "convergent"
    assert div.verdict == "divergent"


@pytest.mark.parametrize(
    "family, p, strip",
    [(WeightFamily.BONAMI_DENOMINATOR, 2.0, 1.0), (WeightFamily.DEMANGE_DENOMINATOR, 1.0, 0.5)],
)
def test_denominator_scans_to_grid_edge(closed_field, family, p, strip):
    # |V|^p exp(c |x xi|) = exp(-strip pi (|x| - |xi|)^2) on the Gaussian-pair
    # STFT: a diagonal strip, whose mass over (1+|x|+|xi|)^N converges iff N > 1
    x = closed_field.grid.x_nodes()
    for N, verdict in ((2.0, "convergent"), (0.5, "divergent")):
        report = tfu.growth_scan(closed_field, spec(family, p=p, N=N), CONVERGENCE_RADII)
        assert report.verdict == verdict
        oracle = math.fsum(
            math.exp(-strip * math.pi * (abs(a) - abs(b)) ** 2) / (1 + abs(a) + abs(b)) ** N
            for a in x
            for b in x
        )
        assert report.radii[-1] == 8.0
        assert report.masses[-1] == pytest.approx(oracle / 256, rel=1e-12)


# ---------------------------------------------------------------------------
# growth scans


def test_radial_half_scan_quadratic(closed_field):
    report = tfu.growth_scan(closed_field, spec(WeightFamily.RADIAL_HALF), DIVERGENCE_RADII)
    assert report.verdict == "divergent"
    assert report.fitted_exponent == pytest.approx(2.0, abs=0.1)
    assert report.masses == tuple((2 * r) ** 2 for r in DIVERGENCE_RADII)


def test_scan_requires_enough_radii(closed_field):
    with pytest.raises(ValueError, match="at least 4 radii"):
        tfu.growth_scan(closed_field, spec(WeightFamily.RADIAL_HALF), (1.0, 2.0, 3.0))


def test_scan_requires_increasing_radii(closed_field):
    with pytest.raises(ValueError, match="strictly increasing"):
        tfu.growth_scan(closed_field, spec(WeightFamily.RADIAL_HALF), (1.0, 2.0, 2.0, 3.0))


def test_scan_flags_borderline_slow_divergence(exact_transform_pair):
    # just past the N = d dichotomy the increments stay large while the
    # slope flattens; such scans keep the divergent verdict but get flagged
    pair = tfu.pair_field(*exact_transform_pair)
    report = tfu.growth_scan(pair, spec(WeightFamily.BONAMI_DENOMINATOR, N=1.2), CONVERGENCE_RADII)
    assert report.verdict == "divergent"
    assert report.note == "borderline"


def test_zero_signal_scan_is_convergent(grid):
    zero = TFArray(grid=grid, values=np.zeros(grid.shape, dtype=complex))
    report = tfu.growth_scan(zero, spec(WeightFamily.RADIAL_HALF), DIVERGENCE_RADII)
    assert report.verdict == "convergent"
    assert report.masses == (0.0,) * len(DIVERGENCE_RADII)


def test_growth_report_requires_monotone_masses():
    with pytest.raises(ValueError, match="nondecreasing"):
        tfu.GrowthReport(radii=(1.0, 2.0), masses=(2.0, 1.0), fitted_exponent=0.0, verdict="divergent")


# ---------------------------------------------------------------------------
# properties over generated fields

#: Half-extent 6: no weight exceeds e^678 here, so for |field| <= 1e3 the
#: linear product |field|^p w is finite everywhere.
SMALL_GRID = TFGrid(x_step=0.75, xi_step=0.75, x_count=16, xi_count=16)

fields = arrays(
    np.float64, SMALL_GRID.shape, elements=st.just(0.0) | st.floats(1e-3, 1e3) | st.floats(-1e3, -1e-3)
).map(lambda a: TFArray(grid=SMALL_GRID, values=a.astype(complex)))
weight_specs = st.builds(
    WeightSpec, st.sampled_from(list(WeightFamily)), p=st.floats(1.0, 3.0), N=st.floats(0.0, 3.0)
)
derandomized = settings(derandomize=True, database=None, deadline=None, max_examples=60)


@derandomized
@given(fields, weight_specs, st.lists(st.floats(0.1, 6.0), min_size=2, max_size=8, unique=True))
def test_mass_nondecreasing_in_radius(field, w, radii):
    masses = [tfu.weighted_mass(field, w, r) for r in sorted(radii)]
    assert all(a <= b for a, b in zip(masses, masses[1:]))


@derandomized
@given(fields, weight_specs, st.floats(0.1, 6.0))
def test_log_domain_mass_equals_linear_product(field, w, R):
    grid = field.grid
    x, xi = grid.x_nodes()[:, None], grid.xi_nodes()[None, :]
    inside = (x >= -R) & (x < R) & (xi >= -R) & (xi < R)
    linear = np.where(inside, np.abs(field.values) ** w.p * np.exp(w.log_weight(x, xi)), 0.0)
    expected = grid.cell_measure * tfu.pairwise_sum(linear)
    assert tfu.weighted_mass(field, w, R) == pytest.approx(expected, rel=1e-13, abs=0.0)


# ---------------------------------------------------------------------------
# decay fitting


def test_decay_fit_gaussian_width(layout):
    f = tfu.sample(tfu.gaussian(2.0, amplitude=1.0), layout)
    assert tfu.decay_fit(f) == pytest.approx(2.0, abs=1e-3)


def test_decay_fit_critical_product(layout):
    f = tfu.sample(tfu.unit_gaussian(), layout)
    product = tfu.decay_fit(f) * tfu.decay_fit(tfu.discrete_fourier(f))
    assert product == pytest.approx(1.0, abs=1e-3)


def test_decay_fit_hermite_bias(layout):
    # polynomial factor biases the log-quadratic fit; tolerance is loose
    h2 = tfu.sample(tfu.hermite(2), layout)
    assert tfu.decay_fit(h2) == pytest.approx(1.0, abs=0.05)


@pytest.mark.parametrize("lam", [0.5, 2.0])
def test_decay_fit_dilation_covariance(layout, lam):
    base = tfu.sample(tfu.gaussian(1.0, amplitude=1.0), layout)
    dilated = tfu.SampledSignal(np.exp(-np.pi * (lam * layout.times()) ** 2), layout.step)
    assert tfu.decay_fit(dilated) == pytest.approx(tfu.decay_fit(base) * lam**2, abs=1e-3)


def test_decay_fit_tail_fraction_range(layout):
    f = tfu.sample(tfu.unit_gaussian(), layout)
    with pytest.raises(ValueError, match="tail_fraction"):
        tfu.decay_fit(f, 0.7)


def test_decay_fit_underflow(layout):
    silent = tfu.SampledSignal(np.zeros(layout.count, dtype=complex), layout.step)
    with pytest.raises(ValueError, match="tail underflow"):
        tfu.decay_fit(silent)
