"""The benchmark's checkers accept correct outputs and reject perturbed ones.

Run with: python3 -m pytest -q tfubench/tests
"""

import json
import sys
from pathlib import Path

import pytest

import checks
import spans
import workloads
from tfu import DEFAULT_LAYOUT, TFGrid, cli, compute_stft, sample, unit_gaussian

ROOT = Path(__file__).resolve().parents[2]


def lieb_rows(*pairs):
    return [{"p": repr(p), "ratio": repr(r)} for p, r in pairs]


def test_lieb_accepts_both_sides_of_the_energy_identity():
    checks.check_lieb(lieb_rows((1.0, 1.28), (1.5, 1.1), (2.0, 1 + 4e-16), (3.0, 0.8), (6.0, 0.4)), "t")


@pytest.mark.parametrize("p, ratio", [(3.0, 1.0001), (2.0, 1 + 2e-6), (2.0, 1 - 2e-6), (1.5, 0.999)])
def test_lieb_rejects_a_ratio_on_the_wrong_side(p, ratio):
    with pytest.raises(checks.CheckError):
        checks.check_lieb(lieb_rows((1.0, 1.28), (p, ratio)), "t")


def growth_rows(masses, key=("radial_half", "1", "0", "stft")):
    return [
        dict(zip(("family", "p", "N", "field", "R", "mass"), (*key, repr(float(r)), repr(m))))
        for r, m in enumerate(masses, start=1)
    ]


def test_growth_accepts_nondecreasing_scans_and_a_new_scan_starting_lower():
    rows = growth_rows([1.0, 4.0, 4.0, 9.0]) + growth_rows([0.5, 2.0], key=("hyperbolic", "1", "0", "stft"))
    rows += growth_rows([0.1, 0.2])  # same key again: R restarts, so a new scan
    checks.check_growth(rows, "t")


def test_growth_rejects_a_mass_that_falls_with_r():
    with pytest.raises(checks.CheckError, match="falls"):
        checks.check_growth(growth_rows([1.0, 4.0, 3.999, 9.0]), "t")


def support_row(variant, p, eps, satisfiable=True, area=None, bound=None):
    bound = checks.support_lower_bound(variant, p, eps) if bound is None else bound
    return {
        "variant": variant,
        "p": repr(p),
        "epsilon": repr(eps),
        "satisfiable": str(satisfiable),
        "measured_area": "" if area is None else repr(area),
        "lower_bound": repr(bound),
    }


def test_support_bound_matches_the_program():
    for variant, p, eps in [("l1_fraction", 3.0, 0.1), ("lp_vs_l1p", 1.5, 0.1), ("lp_vs_energy", 2.0, 0.25)]:
        mode = cli.SupportMode(cli._VARIANTS[variant], p=p, epsilon=eps)
        assert checks.support_lower_bound(variant, p, eps) == pytest.approx(cli.lower_bound(mode), rel=1e-15)


def test_support_accepts_met_and_unsatisfiable_rows():
    rows = [support_row("l1_fraction", 2.0, 0.0, area=1.39), support_row("lp_vs_l1p", 1.5, 0.1, satisfiable=False)]
    checks.check_support(rows, "t")


@pytest.mark.parametrize(
    "row",
    [
        support_row("l1_fraction", 3.0, 0.1, area=1.2, bound=1.0457055034760026 * (1 + 1e-9)),
        support_row("lp_vs_energy", 1.0, 0.25, area=0.74),
    ],
)
def test_support_rejects_a_wrong_bound_or_an_area_below_it(row):
    with pytest.raises(checks.CheckError):
        checks.check_support([row], "t")


SMALL_CONFIG = """\
[pair]
f = gaussian:a=0.5
g = hermite:n=1
checks = isometry, lieb, weights
lieb_p = 1.5, 2, 3
weights = radial_half p=1; hyperbolic p=1

[unit]
checks = closed_form, support
support = l1_fraction p=3 eps=0.1; lp_vs_l1p p=1.5 eps=0.1 expect=unsatisfiable

[overflow]
checks = weights
weights = radial_full p=2 field=closed radii=5:6:7:8
"""
OVERFLOW_ERROR = "[overflow] non-finite integrand value at node (0, 0)"


@pytest.fixture(scope="module")
def run_dir(tmp_path_factory):
    base = tmp_path_factory.mktemp("run")
    config = base / "small.ini"
    config.write_text(SMALL_CONFIG, encoding="utf-8")
    out = base / "out"
    assert cli.main(["run", str(config), "--out", str(out), "--no-timestamp"]) == 1
    return out


def copy_dir(src, dst):
    dst.mkdir()
    for path in src.iterdir():
        (dst / path.name).write_bytes(path.read_bytes())
    return dst


def test_run_check_counts_the_known_failure(run_dir):
    assert checks.check_run(run_dir, ["pair", "unit", "overflow"], OVERFLOW_ERROR) == 1


def test_run_check_rejects_an_unexpected_error(run_dir):
    with pytest.raises(checks.CheckError, match="unexpected scenario error"):
        checks.check_run(run_dir, ["pair", "unit", "overflow"], None)


def test_run_check_rejects_a_perturbed_lieb_table(run_dir, tmp_path):
    out = copy_dir(run_dir, tmp_path / "out")
    table = out / "pair__lieb.csv"
    lines = table.read_text().splitlines()
    assert lines[-1].startswith("3,")
    lines[-1] = "3,1.00001"
    table.write_text("\n".join(lines) + "\n")
    with pytest.raises(checks.CheckError, match="above 1"):
        checks.check_run(out, ["pair", "unit", "overflow"], OVERFLOW_ERROR)


def test_run_check_rejects_a_perturbed_support_bound(run_dir, tmp_path):
    out = copy_dir(run_dir, tmp_path / "out")
    table = out / "unit__support.csv"
    table.write_text(table.read_text().replace("1.0457055034760026", "1.0457055035760026"))
    with pytest.raises(checks.CheckError, match="bound"):
        checks.check_run(out, ["pair", "unit", "overflow"], OVERFLOW_ERROR)


def test_run_check_rejects_a_failed_report(run_dir, tmp_path):
    out = copy_dir(run_dir, tmp_path / "out")
    report = json.loads((out / "pair.json").read_text())
    report["checks"]["isometry"]["defect"] = 1e-3
    (out / "pair.json").write_text(json.dumps(report))
    with pytest.raises(checks.CheckError, match="isometry defect"):
        checks.check_run(out, ["pair", "unit", "overflow"], OVERFLOW_ERROR)


def test_digest_sees_one_changed_byte(run_dir, tmp_path):
    out = copy_dir(run_dir, tmp_path / "out")
    assert checks.digest(out) == checks.digest(run_dir)
    table = out / "pair__growth.csv"
    data = bytearray(table.read_bytes())
    data[-2] ^= 1
    table.write_bytes(bytes(data))
    assert checks.digest(out) != checks.digest(run_dir)


@pytest.fixture(scope="module")
def unit_export(tmp_path_factory):
    f = sample(unit_gaussian(), DEFAULT_LAYOUT)
    v = compute_stft(f, f, TFGrid.from_layout(DEFAULT_LAYOUT))
    path = tmp_path_factory.mktemp("export") / "v.csv"
    cli.export_tfarray(v, path)
    return path, v


def test_export_check_accepts_the_unit_gaussian_pair(unit_export):
    path, v = unit_export
    checks.check_export(path, v, unit_gaussian_pair=True)


def test_export_check_rejects_one_flipped_bit(unit_export, tmp_path):
    path, v = unit_export
    lines = path.read_bytes().split(b"\n")
    row = 1 + 128 * 256 + 128  # x = 0, xi = 0
    fields = lines[row].split(b",")
    assert fields[:2] == [b"0", b"0"]
    fields[2] = bytes([fields[2][0] ^ 1]) + fields[2][1:]
    lines[row] = b",".join(fields)
    flipped = tmp_path / "flipped.csv"
    flipped.write_bytes(b"\n".join(lines))
    with pytest.raises(checks.CheckError, match="bit-exactly"):
        checks.check_export(flipped, v, unit_gaussian_pair=True)


def test_export_check_rejects_a_field_off_the_gaussian_closed_form(tmp_path):
    f = sample(unit_gaussian(0.5), DEFAULT_LAYOUT)
    v = compute_stft(f, f, TFGrid.from_layout(DEFAULT_LAYOUT))
    path = tmp_path / "v.csv"
    cli.export_tfarray(v, path)
    checks.check_export(path, v, unit_gaussian_pair=False)
    with pytest.raises(checks.CheckError, match="closed form"):
        checks.check_export(path, v, unit_gaussian_pair=True)


def test_layer_stats_subtracts_child_spans():
    recorded = [
        spans.Span(1, "stft.compute_stft", 1.0, 1.5, 0, 7, 64),
        spans.Span(2, "core._centered_fft", 1.1, 1.4, 1, 7, 64),
        spans.Span(0, "cli.run_scenario", 0.0, 2.0, None, 7, None),
        spans.Span(3, "stft.compute_stft", 5.0, 5.25, None, 8, 64),
    ]
    stats = spans.layer_stats(recorded)
    assert stats["cli.run_scenario.self_s"] == pytest.approx(1.5)
    assert stats["stft.compute_stft.self_s"] == pytest.approx(0.2 + 0.25)
    assert stats["stft.compute_stft.calls"] == 2
    assert stats["stft.compute_stft.cells"] == 128
    assert stats["core._centered_fft.points"] == 64


def test_tracer_wraps_every_binding_and_restores_it():
    import tfu.identity
    import tfu.stft
    import tfu.support

    original = tfu.stft.compute_stft
    tracer = spans.Tracer()
    tracer.install()
    try:
        for module in (tfu.stft, tfu.support, tfu.identity, cli):
            assert module.compute_stft is not original
            assert module.compute_stft.__wrapped__ is original
        f = sample(unit_gaussian(), DEFAULT_LAYOUT)
        tfu.support.bound_sweep(f, f, TFGrid.from_layout(DEFAULT_LAYOUT), [cli.parse_support_mode("l1_fraction p=2")[0]])
    finally:
        tracer.uninstall()
    assert tfu.support.compute_stft is original and cli.compute_stft is original
    stats = spans.layer_stats(tracer.spans)
    assert stats["stft.compute_stft.calls"] == 1
    assert stats["support.sorted_cell_masses.calls"] == 1
    assert stats["kernels.prefix_count.elements"] == 256 * 256
    by_id = {s.id: s for s in tracer.spans}
    fft = next(s for s in tracer.spans if s.name == "core._centered_fft")
    assert by_id[fft.parent].name == "stft.compute_stft"


def test_spawned_child_peak_excludes_the_parent_memory(tmp_path):
    import run

    ballast = bytearray(128 * 2**20)
    ballast[:: 4096] = b"\1" * len(ballast[:: 4096])  # resident, not just reserved
    spawner = run.Spawner(tmp_path / "log")
    try:
        (wall, _), peak, code = spawner.run([sys.executable, "-c", "pass"])
    finally:
        spawner.close()
    assert code == 0 and wall > 0
    assert peak < 64, f"child peak {peak:.1f} MiB includes the parent's 128 MiB"
    del ballast


def test_quiet_median_drops_timings_with_more_stolen_time():
    import run

    samples = [(1.0, 0), (1.1, 2), (3.0, 40), (0.9, 1), (2.5, 30)]
    assert run.quiet_median(samples) == 1.0
    assert run.quiet_median([(1.0, 0), (2.0, 0), (3.0, 0)]) == 2.0


def test_generated_inputs_depend_only_on_the_seed():
    assert workloads.large_grid_config(7) == workloads.large_grid_config(7)
    assert workloads.large_grid_config(7) != workloads.large_grid_config(8)
    assert workloads.export_pairs(7) == workloads.export_pairs(7)
    assert workloads.export_pairs(7)[0] == workloads.EXPORT_UNIT_PAIR


def test_benchmark_json_names_what_the_runner_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [m["name"] for m in spec["per_layer"]] == [name for name, _ in spans.PER_LAYER]
    assert [m["name"] for m in spec["end_to_end"]] == ["setup_s", "wall_s", "inproc_s", "peak_rss_mb"]
