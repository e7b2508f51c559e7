"""Acceptance suite: one test per scripted criterion, run on the default
desk-scale layout (256 samples on [-8, 8), self-dual plane grid). Each test
prints a single pass/fail line; run with `pytest tests/test_acceptance.py -v -s`.
"""

import filecmp
import itertools
import math

import numpy as np

import tfu
from tfu import cli
from tfu.support import SupportMode, SupportVariant, sorted_cell_masses
from tfu.weights import CONVERGENCE_RADII, DIVERGENCE_RADII, WeightFamily, WeightSpec

LIEB_UPPER_PS = (3.0, 4.0, 6.0)
LIEB_LOWER_PS = (1.0, 1.25, 1.5)


def report(name, ok):
    print(f"ACCEPT {name}: {'PASS' if ok else 'FAIL'}")
    assert ok, name


def test_criterion_01_isometry_bank(bank_pairs, grid):
    defects = {name: tfu.isometry_defect(f, g, grid) for name, f, g in bank_pairs}
    ok = len(defects) == 9 and all(d < 1e-8 for d in defects.values())
    report("01 isometry < 1e-8 on the 9-pair bank", ok)


def test_criterion_02_closed_form_match(unit_pair, grid, closed_field):
    f, g = unit_pair
    v = tfu.compute_stft(f, g, grid)
    dev = float(np.max(np.abs(v.values - closed_field.values)))
    report(f"02 closed-form STFT match (max dev {dev:.2e})", dev < 1e-8)


def test_criterion_03_fundamental_identities(layout, grid):
    f = tfu.sample(tfu.unit_gaussian(), layout)
    g2 = tfu.sample(tfu.unit_gaussian(2.0), layout)
    h1 = tfu.sample(tfu.hermite(1), layout)
    h2 = tfu.sample(tfu.hermite(2), layout)
    tuples = [
        (f, f, f, f),
        (h1, h2, f, f),
        (f, h1, f, h2),
        (h2, h2, h1, h1),
        (f, h2, h1, g2),
    ]
    ok = all(tfu.fundamental_identity_defect(*tp, grid) < 1e-6 for tp in tuples)
    for z in (-1.0, 0.0, 1.0):
        for zeta in (-1.0, 0.0, 1.0):
            aux = tfu.build_auxiliary(f, f, grid, z, zeta)
            ok = ok and tfu.rotation_invariance_defect(aux) < 1e-6
    aux = tfu.build_auxiliary(h1, f, grid, 0.0, 0.0)
    ok = ok and tfu.rotation_invariance_defect(aux) < 1e-6
    report("03 fundamental identities (5 tuples, 10 rotations) < 1e-6", ok)


def test_criterion_04_lieb_ratios(bank_pairs, bank_stfts):
    ok = True
    for name, f, g in bank_pairs:
        fn, gn = f.l2_norm(), g.l2_norm()
        v = bank_stfts[name]
        ok = ok and abs(tfu.lieb_ratio(v, 2.0, fn, gn) - 1) <= 1e-6
        for p in LIEB_UPPER_PS:
            ok = ok and tfu.lieb_ratio(v, p, fn, gn) <= 1 + 1e-6
        for p in LIEB_LOWER_PS:
            ok = ok and tfu.lieb_ratio(v, p, fn, gn) >= 1 - 1e-6
    gauss = bank_stfts["g1-G"]
    for p in (2.0,) + LIEB_UPPER_PS + LIEB_LOWER_PS:
        ok = ok and abs(tfu.lieb_ratio(gauss, p, 1.0, 1.0) - 1) <= 1e-5
    report("04 Lp-ratio directions and Gaussian extremality", ok)


def test_criterion_05_divergence_suite(
    bank_pairs, bank_stfts, bank_signals, closed_field, exact_transform_pair
):
    ok = True
    # quantitative anchors on exactly sampled fields
    scan = tfu.growth_scan(closed_field, WeightSpec(WeightFamily.RADIAL_HALF, p=1), DIVERGENCE_RADII)
    ok = ok and scan.verdict == "divergent" and abs(scan.fitted_exponent - 2.0) <= 0.1
    scan = tfu.growth_scan(closed_field, WeightSpec(WeightFamily.HYPERBOLIC, p=1), DIVERGENCE_RADII)
    ok = ok and scan.verdict == "divergent" and abs(scan.fitted_exponent - 1.0) <= 0.15
    pair = tfu.pair_field(*exact_transform_pair)
    scan = tfu.growth_scan(pair, WeightSpec(WeightFamily.PAIR_HYPERBOLIC, p=1), DIVERGENCE_RADII)
    ok = ok and scan.verdict == "divergent" and abs(scan.fitted_exponent - 1.0) <= 0.15
    scan = tfu.growth_scan(pair, WeightSpec(WeightFamily.RADIAL_FULL, p=2), DIVERGENCE_RADII)
    ok = ok and scan.verdict == "divergent" and abs(scan.fitted_exponent - 2.0) <= 0.1
    # every nonzero bank pair diverges under each critical plane weight
    for name, _, _ in bank_pairs:
        for family in (WeightFamily.RADIAL_HALF, WeightFamily.HYPERBOLIC):
            for p in (1.0, 2.0):
                verdict = tfu.growth_scan(
                    bank_stfts[name], WeightSpec(family, p=p), DIVERGENCE_RADII
                ).verdict
                ok = ok and verdict == "divergent"
    # and every bank signal diverges under the critical product weights
    f_bank, _ = bank_signals
    for f in f_bank.values():
        for family, p in (
            (WeightFamily.PAIR_HYPERBOLIC, 1.0),
            (WeightFamily.PAIR_HYPERBOLIC, 2.0),
            (WeightFamily.RADIAL_FULL, 1.0),
            (WeightFamily.RADIAL_FULL, 2.0),
        ):
            verdict = tfu.growth_scan(tfu.pair_field(f), WeightSpec(family, p=p), DIVERGENCE_RADII).verdict
            ok = ok and verdict == "divergent"
    report("05 divergence suite (slopes anchored, bank-wide verdicts)", ok)


def test_criterion_06_denominator_thresholds(closed_field, exact_transform_pair):
    pair = tfu.pair_field(*exact_transform_pair)
    bon2 = tfu.growth_scan(pair, WeightSpec(WeightFamily.BONAMI_DENOMINATOR, N=2.0), CONVERGENCE_RADII)
    bon05 = tfu.growth_scan(pair, WeightSpec(WeightFamily.BONAMI_DENOMINATOR, N=0.5), CONVERGENCE_RADII)
    dem2 = tfu.growth_scan(closed_field, WeightSpec(WeightFamily.DEMANGE_DENOMINATOR, N=2.0), CONVERGENCE_RADII)
    dem05 = tfu.growth_scan(closed_field, WeightSpec(WeightFamily.DEMANGE_DENOMINATOR, N=0.5), CONVERGENCE_RADII)
    ok = (
        bon2.verdict == "convergent"
        and bon05.verdict == "divergent"
        and dem2.verdict == "convergent"
        and dem05.verdict == "divergent"
    )
    report("06 denominator power threshold (N=2 vs N=0.5)", ok)


def test_criterion_07_decay_product(layout):
    ok = True
    for a in (0.5, 1.0, 2.0):
        f = tfu.sample(tfu.unit_gaussian(a), layout)
        product = tfu.decay_fit(f) * tfu.decay_fit(tfu.discrete_fourier(f))
        ok = ok and abs(product - 1.0) <= 1e-2
    report("07 decay-constant product = 1 for a in {1/2, 1, 2}", ok)


def test_criterion_08_support_bounds(unit_pair, grid):
    f, g = unit_pair
    v = tfu.compute_stft(f, g, grid)
    ok = True
    sweep = tfu.bound_sweep(
        f,
        g,
        grid,
        [
            SupportMode(SupportVariant.L1_FRACTION, p=p, epsilon=eps)
            for p in (2.0, 3.0, 4.0)
            for eps in (0.0, 0.1, 0.25)
        ],
    )
    ok = ok and len(sweep) == 9 and all(r.satisfiable and r.bound_holds for r in sweep)
    for eps in (0.0, 0.25):
        r = tfu.greedy_essential_support(
            v, SupportMode(SupportVariant.LP_VS_ENERGY, p=1.0, epsilon=eps), 1.0, 1.0
        )
        ok = ok and r.satisfiable and r.measured_area >= 1 - eps
    eps = math.exp(-2)
    r = tfu.greedy_essential_support(
        v, SupportMode(SupportVariant.L1_FRACTION, p=2.0, epsilon=eps), 1.0, 1.0
    )
    disc = 2 * math.log(2 / (1 + eps))
    ok = ok and abs(r.measured_area - disc) <= 2 * grid.cell_measure
    r = tfu.greedy_essential_support(
        v, SupportMode(SupportVariant.LP_VS_L1P, p=1.0, epsilon=0.25), 1.0, 1.0
    )
    ok = ok and r.satisfiable and r.measured_area >= 2**2 * 0.75**2
    r = tfu.greedy_essential_support(
        v, SupportMode(SupportVariant.LP_VS_L1P, p=1.5, epsilon=0.1), 1.0, 1.0
    )
    ok = ok and not r.satisfiable
    report("08 essential-support bounds (sweep, disc, product cases)", ok)


def test_criterion_09_greedy_oracle():
    rng = np.random.default_rng(20260809)
    grid = tfu.TFGrid(x_step=1.0, xi_step=1.0, x_count=8, xi_count=8)
    ok = True
    for _ in range(20):
        field = tfu.TFArray(grid=grid, values=rng.random((8, 8)).astype(complex))
        _, masses = sorted_cell_masses(field, p=1.0)
        vals = list(masses)
        for k in (1, 2, 3):
            greedy = 0.0
            for x in vals[:k]:
                greedy += x
            best = -math.inf
            for combo in itertools.combinations(range(len(vals)), k):
                s = 0.0
                for i in combo:
                    s += vals[i]
                best = max(best, s)
            ok = ok and best == greedy
    report("09 greedy prefix equals brute-force optimum, exactly", ok)


def test_criterion_10_deterministic_reports(tmp_path):
    outs = []
    for sub in ("first", "second"):
        out = tmp_path / sub
        rc = cli.main(["run", "paper-suite", "--out", str(out), "--no-timestamp"])
        assert rc == 0
        outs.append(out)
    names = sorted(p.name for p in outs[0].iterdir())
    ok = names == sorted(p.name for p in outs[1].iterdir())
    match, mismatch, errors = filecmp.cmpfiles(outs[0], outs[1], names, shallow=False)
    ok = ok and not mismatch and not errors and len(match) == len(names)
    report(f"10 byte-identical reports across runs ({len(names)} files)", ok)
