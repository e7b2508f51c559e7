import json
import re
from pathlib import Path

import numpy as np
import pytest

import tfu
from tfu import cli, specs


def write_config(tmp_path, text):
    path = tmp_path / "config.ini"
    path.write_text(text, encoding="utf-8")
    return str(path)


def read_json(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# function spec grammar


def test_parse_gaussian_defaults_to_unit_norm():
    fn = cli.parse_function_spec("gaussian:a=2")
    assert fn.kind == "gaussian" and fn.width == 2.0
    assert fn.amplitude == pytest.approx(4**0.25)


def test_parse_gaussian_explicit_amplitude_and_shifts():
    fn = cli.parse_function_spec("gaussian:a=1:amp=1:z=1:w=-2")
    assert fn.amplitude == 1.0 and fn.translation == 1.0 and fn.modulation == -2.0


def test_parse_hermite():
    fn = cli.parse_function_spec("hermite:n=2")
    assert fn.kind == "hermite" and fn.order == 2


@pytest.mark.parametrize("bad", ["", "splines:k=3", "gaussian:a", "gaussian:q=1"])
def test_parse_rejects_malformed_specs(bad):
    with pytest.raises(cli.ConfigError):
        cli.parse_function_spec(bad)


# ---------------------------------------------------------------------------
# run command


def test_run_isometry_scenario(tmp_path, capsys):
    config = write_config(
        tmp_path,
        "[gauss-pair]\nf = gaussian:a=1\ng = gaussian:a=1\nchecks = isometry\n",
    )
    out = tmp_path / "out"
    rc = cli.main(["run", config, "--out", str(out), "--no-timestamp"])
    assert rc == 0
    report = read_json(out / "gauss-pair.json")
    assert report["passed"]
    assert report["checks"]["isometry"]["defect"] < 1e-9
    assert "timestamp" not in report


def test_run_rejects_out_of_range_support_p(tmp_path, capsys):
    config = write_config(
        tmp_path,
        "[bad]\nchecks = support\nsupport = lp_vs_l1p p=2 eps=0\n",
    )
    rc = cli.main(["run", config, "--out", str(tmp_path / "out")])
    assert rc == 1
    assert "p out of range" in capsys.readouterr().err


def test_run_rejects_unknown_key(tmp_path, capsys):
    config = write_config(tmp_path, "[s]\nchecks = isometry\nfrequency = 3\n")
    rc = cli.main(["run", config, "--out", str(tmp_path / "out")])
    assert rc == 1
    assert "unknown key 'frequency' in [s]" in capsys.readouterr().err


def test_run_rejects_unknown_check(tmp_path, capsys):
    config = write_config(tmp_path, "[s]\nchecks = vibes\n")
    rc = cli.main(["run", config, "--out", str(tmp_path / "out")])
    assert rc == 1
    assert "unknown check 'vibes'" in capsys.readouterr().err


def test_run_assertion_failure_exits_two_with_partial_results(tmp_path):
    config = write_config(
        tmp_path,
        "[impossible]\nchecks = isometry\nisometry_tol = 1e-30\n"
        "[fine]\nchecks = isometry\n",
    )
    out = tmp_path / "out"
    rc = cli.main(["run", config, "--out", str(out), "--no-timestamp"])
    assert rc == 2
    assert not read_json(out / "impossible.json")["passed"]
    assert read_json(out / "fine.json")["passed"]
    summary = read_json(out / "summary.json")
    assert not summary["passed"]


def test_run_scenario_filter(tmp_path):
    config = write_config(
        tmp_path,
        "[one]\nchecks = isometry\n[two]\nchecks = isometry\n",
    )
    out = tmp_path / "out"
    rc = cli.main(["run", config, "--out", str(out), "--no-timestamp", "--scenario", "two"])
    assert rc == 0
    assert not (out / "one.json").exists()
    assert (out / "two.json").exists()


def test_run_missing_config(tmp_path, capsys):
    rc = cli.main(["run", str(tmp_path / "nope.ini"), "--out", str(tmp_path / "out")])
    assert rc == 1
    assert "config not found" in capsys.readouterr().err


def test_run_small_config_byte_identical(tmp_path, monkeypatch):
    config = write_config(
        tmp_path,
        "[pair]\nf = gaussian:a=1\ng = hermite:n=1\nchecks = isometry, lieb\nlieb_p = 1.5, 2, 3\n",
    )
    outs = []
    for sub, threads in (("a", "1"), ("b", "2")):
        out = tmp_path / sub
        monkeypatch.setenv("TFU_THREADS", threads)
        assert cli.main(["run", config, "--out", str(out), "--no-timestamp"]) == 0
        outs.append(out)
    for name in ("pair.json", "pair__lieb.csv", "summary.json"):
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()


def test_run_timestamp_present_by_default(tmp_path):
    config = write_config(tmp_path, "[s]\nchecks = isometry\n")
    out = tmp_path / "out"
    assert cli.main(["run", config, "--out", str(out)]) == 0
    assert "timestamp" in read_json(out / "s.json")


# ---------------------------------------------------------------------------
# export


def test_export_small_array_layout(tmp_path):
    grid = tfu.TFGrid(x_step=0.5, xi_step=0.5, x_count=2, xi_count=2)
    values = np.array([[1 + 2j, 0.25], [-1.5j, 3.0]], dtype=complex)
    path = tmp_path / "small.csv"
    cli.export_tfarray(tfu.TFArray(grid=grid, values=values), path)
    lines = path.read_text().splitlines()
    assert lines[0] == "x,xi,re,im,abs"
    assert len(lines) == 5
    assert lines[1].startswith("-0.5,-0.5,1,2,")


def test_export_roundtrip_bit_exact(tmp_path, layout, grid):
    f = tfu.sample(tfu.unit_gaussian(), layout)
    v = tfu.compute_stft(f, f, grid)
    path = tmp_path / "stft.csv"
    cli.export_tfarray(v, path)
    back = cli.import_tfarray(path)
    assert np.array_equal(back.values, v.values)
    assert back.grid.shape == v.grid.shape


def test_export_stft_command_peak_at_origin(tmp_path):
    path = tmp_path / "v.csv"
    rc = cli.main(
        ["export-stft", "--f", "gaussian:a=1", "--g", "gaussian:a=1", "--out", str(path)]
    )
    assert rc == 0
    lines = path.read_text().splitlines()
    assert len(lines) == 256 * 256 + 1
    best = max(lines[1:], key=lambda ln: float(ln.rsplit(",", 1)[1]))
    x, xi, re, im, mag = best.split(",")
    assert (x, xi) == ("0", "0")
    assert float(mag) == pytest.approx(1.0, abs=1e-10)


# ---------------------------------------------------------------------------
# bounds


def test_bounds_command(capsys):
    rc = cli.main(["bounds", "--mode", "l1_fraction", "--p", "4", "--eps", "0.1", "--d", "1"])
    assert rc == 0
    printed = float(capsys.readouterr().out.strip())
    expected = tfu.lower_bound(
        tfu.SupportMode(tfu.SupportVariant.L1_FRACTION, p=4.0, epsilon=0.1), d=1
    )
    assert printed == expected


def test_bounds_command_rejects_bad_p(capsys):
    rc = cli.main(["bounds", "--mode", "lp_vs_l1p", "--p", "2", "--eps", "0"])
    assert rc == 1
    assert "p out of range" in capsys.readouterr().err


def test_bounds_command_rejects_bad_mode(capsys):
    rc = cli.main(["bounds", "--mode", "nope", "--p", "2"])
    assert rc == 1


def test_usage_error_exits_one():
    with pytest.raises(SystemExit) as exc:
        cli.main(["run"])  # missing --out
    assert exc.value.code == 1


# ---------------------------------------------------------------------------
# failure containment and load-time limits


def test_run_scenario_fault_keeps_other_reports(tmp_path, capsys, monkeypatch):
    def fault(ctx, **values):
        raise ZeroDivisionError("float division by zero")

    monkeypatch.setitem(cli.CHECKS, "lieb", cli.CHECKS["lieb"]._replace(run=fault))
    config = write_config(tmp_path, "[a]\nchecks = isometry\n[z]\nchecks = lieb\n")
    out = tmp_path / "out"
    rc = cli.main(["run", config, "--out", str(out), "--no-timestamp"])
    assert rc == 1
    assert read_json(out / "a.json")["passed"]
    summary = read_json(out / "summary.json")
    assert summary["scenarios"] == [{"name": "a", "passed": True}]
    assert summary["errors"] == ["[z] ZeroDivisionError: float division by zero"]
    assert "error: [z] ZeroDivisionError: float division by zero" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["inf", "-inf", "nan", "1e400"])
@pytest.mark.parametrize(
    "key, template",
    [
        ("isometry_tol", "{}"),
        ("step", "{}"),
        ("lieb_p", "2, {}"),
        ("rotation_z", "0 {}"),
        ("f", "gaussian:a={}"),
        ("weights", "radial_half p={}"),
        ("support", "l1_fraction p=2 eps={}"),
    ],
)
def test_load_config_rejects_non_finite_numbers(tmp_path, key, template, value):
    config = write_config(tmp_path, f"[s]\nchecks = isometry\n{key} = {template.format(value)}\n")
    with pytest.raises(cli.ConfigError, match=rf"^\[s\] {key}: .*not a finite number"):
        cli.load_config(config)


def test_count_limit_is_computed_from_field_bytes():
    assert specs.MAX_COUNT >= 2048
    assert 16 * specs.MAX_COUNT**2 <= specs.MAX_FIELD_BYTES < 16 * (specs.MAX_COUNT + 1) ** 2


def test_load_config_rejects_oversized_count(tmp_path):
    config = write_config(tmp_path, "[s]\nchecks = isometry\ncount = 65536\n")
    with pytest.raises(cli.ConfigError, match=r"^\[s\] count: 65536 samples exceed the limit"):
        cli.load_config(config)


def test_export_stft_rejects_oversized_count_before_sampling(tmp_path, monkeypatch, capsys):
    def refuse(*args):
        raise AssertionError("sampled despite the count limit")

    monkeypatch.setattr(cli, "sample", refuse)
    argv = ["export-stft", "--f", "gaussian:a=1", "--g", "gaussian:a=1", "--out", str(tmp_path / "v.csv")]
    assert cli.main(argv + ["--count", "65536"]) == 1
    assert "65536 samples exceed the limit" in capsys.readouterr().err


def test_load_config_caps_greedy_oracle_subsets(tmp_path):
    # the bundled suite's 20 * (C(64,1) + C(64,2) + C(64,3)) = 874,880 subsets load
    suite = cli.load_config(cli._resolve_config("paper-suite"))
    assert suite[-1].options["oracle_size"] == 8 and suite[-1].options["oracle_fields"] == 20
    config = write_config(tmp_path, "[s]\nchecks = greedy_oracle\noracle_size = 64\n")
    with pytest.raises(cli.ConfigError, match=r"^\[s\] oracle_fields, oracle_size, oracle_max_subset"):
        cli.load_config(config)


def test_scenario_computes_its_stft_once(tmp_path, monkeypatch):
    calls = []
    compute = cli.compute_stft
    monkeypatch.setattr(cli, "compute_stft", lambda *a: calls.append(1) or compute(*a))
    config = write_config(
        tmp_path,
        "[s]\nchecks = isometry, closed_form, lieb, weights, support\n"
        "weights = radial_half p=1\nsupport = l1_fraction p=2 eps=0.1\n",
    )
    (scn,) = cli.load_config(config)
    report, _ = cli.run_scenario(scn)
    assert report["passed"] and len(calls) == 1


def test_readme_check_table_lists_the_registry():
    readme = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")
    section = readme[readme.index("The available checks") : readme.index("Weight scan specs")]
    rows = re.findall(r"^\| `(\w+)` *\|(.*)\|$", section, flags=re.MULTILINE)
    table = {check: set(re.findall(r"`(\w+)`", keys)) for check, keys in rows}
    assert table == {name: set(check.keys) for name, check in cli.CHECKS.items()}
