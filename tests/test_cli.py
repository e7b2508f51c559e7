import collections
import configparser
import functools
import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import tfu
from tfu import cli, specs, stft


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
    assert "[s] unknown key 'frequency'" in capsys.readouterr().err


def test_run_rejects_unknown_check(tmp_path, capsys):
    config = write_config(tmp_path, "[s]\nchecks = vibes\n")
    rc = cli.main(["run", config, "--out", str(tmp_path / "out")])
    assert rc == 1
    assert "unknown check 'vibes'" in capsys.readouterr().err


def test_run_assertion_failure_exits_two_with_partial_results(tmp_path):
    config = write_config(
        tmp_path,
        "[impossible]\nchecks = weights\nweights = radial_half p=1 expect=convergent\n"
        "[fine]\nchecks = isometry\n",
    )
    out = tmp_path / "out"
    rc = cli.main(["run", config, "--out", str(out), "--no-timestamp"])
    assert rc == 2
    assert not read_json(out / "impossible.json")["passed"]
    assert read_json(out / "fine.json")["passed"]
    summary = read_json(out / "summary.json")
    assert not summary["passed"]


def test_run_checks_are_amplitude_invariant(tmp_path):
    # |f|_2^2, |V|^2, (|f| |g|)^p and the support thresholds under- or
    # overflow at these amplitudes unless scaled
    amplitudes = {"unit": "1", "tiny": "1e-200", "huge": "1e200", "small": "1e-100", "large": "1e100"}
    config = write_config(
        tmp_path,
        "".join(
            f"[{name}]\nf = gaussian:a=1:amp={amp}\nchecks = isometry, lieb, support\n"
            "lieb_p = 1, 1.5, 2, 3, 4, 6\nsupport = lp_vs_energy p=4 eps=0.1 expect=unsatisfiable\n\n"
            for name, amp in amplitudes.items()
        ),
    )
    out = tmp_path / "out"
    assert cli.main(["run", config, "--out", str(out), "--no-timestamp"]) == 0
    checks = {name: read_json(out / f"{name}.json")["checks"] for name in amplitudes}
    unit = checks.pop("unit")
    for name, c in checks.items():
        assert c["isometry"]["defect"] == pytest.approx(unit["isometry"]["defect"], abs=1e-13), name
        ratios = [e["ratio"] for e in c["lieb"]["ratios"]]
        assert ratios == pytest.approx([e["ratio"] for e in unit["lieb"]["ratios"]], abs=1e-13), name
        assert c["support"]["modes"] == unit["support"]["modes"], name


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


#: Four small-N scenarios: the bank, an identity tuple of distinct signals,
#: rotations with a shift, and a weighted-mass scan.
POOL_CONFIG = "".join(
    f"[{name}]\ncount = 64\nstep = 0.125\n{keys}"
    for name, keys in (
        ("bank", "f = gaussian:a=2\ng = hermite:n=1\nchecks = isometry, lieb\nlieb_p = 1.5, 2, 3\n"),
        ("identity", "checks = identity\nidentity_tuples = gaussian:a=1, hermite:n=1, gaussian:a=1, hermite:n=2\n"),
        ("rotation", "f = hermite:n=1\nchecks = rotation\nrotation_z = 0 0; 1 -1\n"),
        ("weights", "checks = weights\nweights = radial_half p=1 radii=1:2:3:3.5; hyperbolic p=1 radii=1:2:3:3.5\n"),
    )
)


@pytest.mark.parametrize("threads", [None, "4"])
def test_run_reports_do_not_depend_on_the_pool_size(tmp_path, monkeypatch, threads):
    config = write_config(tmp_path, POOL_CONFIG)
    monkeypatch.setenv("TFU_THREADS", "1")
    assert cli.main(["run", config, "--out", str(tmp_path / "serial"), "--no-timestamp"]) == 0
    if threads is None:
        monkeypatch.delenv("TFU_THREADS")
    else:
        monkeypatch.setenv("TFU_THREADS", threads)
    assert cli.main(["run", config, "--out", str(tmp_path / "pool"), "--no-timestamp"]) == 0
    names = sorted(p.name for p in (tmp_path / "serial").iterdir())
    assert names == sorted(p.name for p in (tmp_path / "pool").iterdir())
    assert {"bank.json", "identity.json", "rotation.json", "weights.json"} <= set(names)
    for name in names:
        assert (tmp_path / "serial" / name).read_bytes() == (tmp_path / "pool" / name).read_bytes()


@pytest.mark.parametrize(
    "affinity, cpu_count, threads, scenarios, workers",
    [
        (1, 1, None, 5, 1),
        (2, 2, None, 5, 2),
        (8, 8, None, 5, 4),
        (8, 8, None, 3, 3),
        (2, 8, None, 5, 2),  # the affinity set, not the machine, bounds the pool
        (None, 8, None, 5, 4),  # no affinity call on this platform
        (None, None, None, 5, 1),  # and no CPU count either
        (1, 1, "3", 5, 3),  # TFU_THREADS sets the cap, even above the CPUs
    ],
)
def test_run_pool_size(tmp_path, monkeypatch, affinity, cpu_count, threads, scenarios, workers):
    if affinity is None:
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    else:
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(affinity)), raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: cpu_count)
    if threads is None:
        monkeypatch.delenv("TFU_THREADS", raising=False)
    else:
        monkeypatch.setenv("TFU_THREADS", threads)
    sizes = []
    pool = cli.ThreadPoolExecutor

    def recording_pool(max_workers):
        sizes.append(max_workers)
        return pool(max_workers=max_workers)

    monkeypatch.setattr(cli, "ThreadPoolExecutor", recording_pool)
    text = "".join(f"[s{i}]\ncount = 64\nstep = 0.125\nchecks = isometry\n" for i in range(scenarios))
    assert cli.main(["run", write_config(tmp_path, text), "--out", str(tmp_path / "out"), "--no-timestamp"]) == 0
    assert sizes == [workers]


def test_run_rejects_bad_thread_count(tmp_path, monkeypatch, capsys):
    config = write_config(tmp_path, "[s]\nchecks = isometry\n")
    out = tmp_path / "out"
    for threads in ("abc", "0", "-2"):
        monkeypatch.setenv("TFU_THREADS", threads)
        assert cli.main(["run", config, "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith("error: TFU_THREADS: ")
        assert not out.exists()


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


def binade_field(grid):
    """Parts spread over every binade, subnormals and +-0 included; below
    2^1021, so |V| does not overflow."""
    rng = np.random.default_rng(20261018)
    shape = (2, *grid.shape)
    parts = np.ldexp(rng.uniform(1, 2, shape), rng.integers(-1076, 1021, shape))
    parts.flat[::97] = 0.0
    parts *= rng.choice([-1.0, 1.0], shape)
    values = np.empty(grid.shape, dtype=complex)  # re + 1j * im would lose some -0 parts
    values.real, values.imag = parts
    return tfu.TFArray(grid=grid, values=values)


def signed_zeros_field():
    return tfu.TFArray(
        grid=tfu.TFGrid(x_step=0.5, xi_step=0.5, x_count=2, xi_count=2),
        values=np.array([[complex(-0.0, 1.0), complex(1.0, -0.0)], [complex(-0.0, -0.0), 0.25]]),
    )


def non_square_field():
    """Unequal counts and non-dyadic steps, so that a mix-up of rows and
    columns or of the two node sets shows."""
    grid = tfu.TFGrid(x_step=0.1, xi_step=0.3, x_count=4, xi_count=6)
    rng = np.random.default_rng(20261019)
    return tfu.TFArray(grid=grid, values=rng.normal(size=grid.shape) + 1j * rng.normal(size=grid.shape))


def test_export_roundtrip_bit_exact(tmp_path, layout, grid):
    f = tfu.sample(tfu.unit_gaussian(), layout)
    for v in (tfu.compute_stft(f, f, grid), binade_field(grid), signed_zeros_field(), non_square_field()):
        path = tmp_path / "stft.csv"
        cli.export_tfarray(v, path)
        back = cli.import_tfarray(path)
        assert np.array_equal(back.values.view(np.uint64), v.values.view(np.uint64))  # -0 is not +0
        assert back.grid == v.grid
        # the abs column is Python's abs(complex), which np.abs misses in the last bit
        re, im, mag = np.loadtxt(path, delimiter=",", skiprows=1, usecols=(2, 3, 4)).T
        assert np.array_equal(mag, [abs(complex(a, b)) for a, b in zip(re, im)])


def test_export_peak_memory_is_below_the_field(tmp_path, layout, grid):
    f = tfu.sample(tfu.unit_gaussian(), layout)
    v = tfu.compute_stft(f, f, grid)
    tracemalloc.start()
    try:
        cli.export_tfarray(v, tmp_path / "stft.csv")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < v.values.nbytes  # 16 * 256^2 bytes = 1 MiB


def savetxt_export(v, path):
    """The np.savetxt row writer that export_tfarray replaced, kept as the
    reference for its bytes."""
    block = np.empty((v.grid.xi_count, 5))
    block[:, 1] = v.grid.xi_nodes()
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("x,xi,re,im,abs\n")
        for x, row in zip(v.grid.x_nodes(), v.values):
            block[:, 0] = x
            block[:, 2], block[:, 3] = row.real, row.imag
            np.hypot(row.real, row.imag, out=block[:, 4])
            np.savetxt(fh, block, fmt="%.17g", delimiter=",")


def test_export_writes_the_savetxt_bytes(tmp_path, layout, grid):
    f = tfu.sample(tfu.hermite(2), layout)
    g = tfu.sample(tfu.unit_gaussian(), layout)
    for v in (binade_field(grid), signed_zeros_field(), tfu.compute_stft(f, g, grid), non_square_field()):
        cli.export_tfarray(v, tmp_path / "new.csv")
        savetxt_export(v, tmp_path / "old.csv")
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()


def test_import_peak_memory_is_bounded_by_the_field(tmp_path, layout, grid):
    f = tfu.sample(tfu.unit_gaussian(), layout)
    v = tfu.compute_stft(f, f, grid)
    path = tmp_path / "stft.csv"
    cli.export_tfarray(v, path)
    tracemalloc.start()
    try:
        back = cli.import_tfarray(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(back.values.view(np.uint64), v.values.view(np.uint64))
    assert peak < 1.5 * v.values.nbytes  # the field itself is 1 MiB at 256^2


_RUN_MISMATCH = "x rows 0-3 do not each hold one x over the first's xi nodes"
_TOO_FEW = "need at least two x and two xi nodes, got "
_OFF_GRID = "the nodes are not those of TFGrid(x_step=0.1, "


def _foreign_x(lines):
    """Line 8 (second x row) carries the x of line 14 (third x row)."""
    return lines[:8] + [lines[14].split(",")[0] + lines[8][lines[8].index(",") :]] + lines[9:]


def _uneven_x(lines):
    """The last x row (x = 0.1) moved to x = 0.5."""
    return lines[:19] + ["0.5" + line[line.index(",") :] for line in lines[19:]]


@pytest.mark.parametrize(
    "edit, message",
    [  # the file has a header and 4 x rows of 6 xi nodes
        pytest.param(
            lambda lines: lines[:-1], "23 rows are not a full grid of x rows of 6 xi nodes each", id="missing"
        ),
        pytest.param(
            lambda lines: lines[:3] + lines[4:] + lines[3:4],
            "24 rows are not a full grid of x rows of 5 xi nodes each",
            id="moved",
        ),
        pytest.param(lambda lines: lines[:8] + lines[9:10] + lines[8:9] + lines[10:], _RUN_MISMATCH, id="swapped-xi"),
        pytest.param(_foreign_x, _RUN_MISMATCH, id="foreign-x"),
        pytest.param(lambda lines: lines + lines[-12:], _OFF_GRID, id="repeated-x"),
        pytest.param(lambda lines: lines[:1] + lines[7:] + lines[1:7], _OFF_GRID, id="unsorted-x"),
        pytest.param(_uneven_x, _OFF_GRID, id="uneven-x"),
        pytest.param(lambda lines: lines[:7], _TOO_FEW + "1 x 6", id="one-x"),
        pytest.param(lambda lines: lines[:1] + lines[1::6], _TOO_FEW + "4 x 1", id="one-xi"),
        pytest.param(lambda lines: lines[:1], _TOO_FEW + "0 x 0", id="header-only"),
        pytest.param(
            lambda lines: lines[:8] + ["oops\n"] + lines[9:],
            "could not convert string 'oops' to float64 at row 7, column 1.",
            id="not-a-number",
        ),
    ],
)
def test_import_refuses_a_file_that_is_not_a_full_grid(tmp_path, edit, message):
    path = tmp_path / "v.csv"
    cli.export_tfarray(non_square_field(), path)
    path.write_text("".join(edit(path.read_text().splitlines(keepends=True))))
    with pytest.raises(ValueError, match=re.escape(f"{path}: {message}")):
        cli.import_tfarray(path)


@pytest.mark.parametrize(
    "edit",
    [
        pytest.param(lambda lines: lines + ["\n"], id="trailing-newline"),
        pytest.param(lambda lines: lines[:9] + ["\n", "  \t\n"] + lines[9:], id="blank-lines"),
        pytest.param(lambda lines: lines[:2] + ["# a note\n", "  # another\n"] + lines[2:], id="comment-lines"),
        pytest.param(lambda lines: lines[:1] + ["\n"] + lines[1:], id="blank-first-row"),
    ],
)
def test_import_skips_blank_and_comment_lines(tmp_path, edit):
    v = non_square_field()
    path = tmp_path / "v.csv"
    cli.export_tfarray(v, path)
    path.write_text("".join(edit(path.read_text().splitlines(keepends=True))))
    back = cli.import_tfarray(path)
    assert back.grid == v.grid
    assert np.array_equal(back.values.view(np.uint64), v.values.view(np.uint64))


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


def test_bounds_command_reports_out_of_range_bound(capsys):
    rc = cli.main(["bounds", "--mode", "l1_fraction", "--p", "3", "--eps", "0", "--d", "100000"])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: l1_fraction bound for p=3, eps=0, d=100000")
    assert err.count("\n") == 1


def test_bounds_command_rejects_bad_p(capsys):
    rc = cli.main(["bounds", "--mode", "lp_vs_l1p", "--p", "2", "--eps", "0"])
    assert rc == 1
    assert "p out of range" in capsys.readouterr().err
    for bad in ("inf", "nan"):  # l1_fraction used to print nan for p = inf
        with pytest.raises(SystemExit) as exc:
            cli.main(["bounds", "--mode", "l1_fraction", "--p", bad, "--eps", "0.1"])
        assert exc.value.code == 1
        assert f"argument --p: invalid finite_float value: '{bad}'" in capsys.readouterr().err


def test_bounds_command_rejects_bad_mode(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["bounds", "--mode", "nope", "--p", "2"])
    assert exc.value.code == 1
    assert "argument --mode: invalid choice: 'nope'" in capsys.readouterr().err


def test_bounds_command_rejects_bad_d(capsys):
    for bad in ("0", "-1", "1.5"):
        with pytest.raises(SystemExit) as exc:
            cli.main(["bounds", "--mode", "l1_fraction", "--p", "2", "--d", bad])
        assert exc.value.code == 1
        assert f"argument --d: invalid positive_int value: '{bad}'" in capsys.readouterr().err


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


def test_run_unwritable_report_keeps_other_reports(tmp_path, capsys):
    config = write_config(tmp_path, "[a]\nchecks = isometry\n[b]\nchecks = isometry\n")
    out = tmp_path / "out"
    (out / "a.json").mkdir(parents=True)  # the rename over it fails
    rc = cli.main(["run", config, "--out", str(out), "--no-timestamp"])
    assert rc == 1
    assert read_json(out / "b.json")["passed"]
    (error,) = read_json(out / "summary.json")["errors"]
    assert error.startswith("[a] cannot write its reports: ")
    assert "error: [a] cannot write its reports: " in capsys.readouterr().err
    assert not list(out.glob("*.tmp"))


def test_atomic_write_removes_its_temporary_file_when_the_write_fails(tmp_path):
    def write(fh):
        fh.write("partial")
        raise OSError("disk full")

    with pytest.raises(OSError, match="disk full"):
        cli._atomic_write(tmp_path / "r.json", write)
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize(
    "body, message",
    [
        # the shifted f sits at the window's lower edge: F_Z is not decayed there
        ("checks = rotation\nrotation_z = -8 0\n", "rotation: rotation_z (-8.0, 0.0): truncation unsound: "),
        # F_Z ~ exp(-pi z^2) underflows
        (
            "count = 1024\nstep = 0.03125\nchecks = rotation\nrotation_z = 20 0\n",
            "rotation: rotation_z (20.0, 0.0): field is identically zero",
        ),
        ("f = gaussian:a=10000\nchecks = decay\n", "decay: tail underflow: "),
    ],
)
def test_run_time_refusals_name_their_check(tmp_path, capsys, body, message):
    out = tmp_path / "out"
    assert cli.main(["run", write_config(tmp_path, f"[s]\n{body}"), "--out", str(out), "--no-timestamp"]) == 1
    assert capsys.readouterr().err.startswith(f"error: [s] {message}")
    assert read_json(out / "summary.json")["errors"][0].startswith(f"[s] {message}")


@pytest.mark.parametrize("value", ["inf", "-inf", "nan", "1e400"])
@pytest.mark.parametrize(
    "key, template",
    [
        ("lieb_equality_tol", "{}"),
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


@pytest.mark.parametrize("command", ["run", "export-stft"])
@pytest.mark.parametrize(
    "key, value, message",
    [
        ("count", "15", "signal count must be an even integer >= 16, got 15"),
        ("step", "-1", "signal step must be positive and finite, got -1.0"),
        ("f", "foo", "unknown function kind 'foo' in 'foo'"),
        ("g", "hermite:n=9", "hermite order must lie in [0, 8], got 9"),
    ],
)
def test_layout_keys_and_flags_are_named(tmp_path, capsys, command, key, value, message):
    # SignalLayout's own rules, applied by the count and step parsers, and the function spec grammar
    out = tmp_path / "out"
    if command == "run":
        argv = ["run", write_config(tmp_path, f"[s]\nchecks = isometry\n{key} = {value}\n"), "--out", str(out)]
        named = f"[s] {key}"
    else:
        argv = ["export-stft", "--f", "gaussian:a=1", "--g", "gaussian:a=1", "--out", str(out), f"--{key}", value]
        named = f"--{key}"
    assert cli.main(argv) == 1
    assert capsys.readouterr().err == f"error: {named}: {message}\n"
    assert not out.exists()


def test_support_bound_beyond_the_float_range_is_refused_at_load(tmp_path, capsys):
    # 2^(2p/(2-p)) at p = 1.999 is 2^3998: the mode is refused by its parser, before any field
    out = tmp_path / "out"
    config = write_config(tmp_path, "[s]\nchecks = support\nsupport = lp_vs_l1p p=1.999 eps=0\n")
    assert cli.main(["run", config, "--out", str(out), "--no-timestamp"]) == 1
    assert capsys.readouterr().err == (
        "error: [s] support: lp_vs_l1p bound for p=1.999, eps=0, d=1 exceeds the float range\n"
    )
    assert not out.exists()


RETIRED_KEYS = [
    "radii", "decay_tail", "oracle_fields", "oracle_size", "oracle_max_subset", "oracle_seed",
    "isometry_tol", "closed_form_tol", "identity_tol", "rotation_tol", "lieb_dir_tol", "decay_product_tol",
]


@pytest.mark.parametrize("key", RETIRED_KEYS)
def test_load_config_refuses_retired_keys(tmp_path, key):
    config = write_config(tmp_path, f"[s]\nchecks = isometry\n{key} = 1\n")
    with pytest.raises(cli.ConfigError, match=rf"^\[s\] unknown key '{key}'"):
        cli.load_config(config)


@pytest.mark.parametrize(
    "body, message",
    [
        ("f = gaussian:a=2\nchecks = closed_form\n", "checks: closed_form requires the unit gaussian pair"),
        (
            "g = hermite:n=1\nchecks = weights\nweights = radial_half p=1; hyperbolic p=1 field=closed\n",
            "weights: field=closed requires the unit gaussian pair",
        ),
        ("checks = weights\n", "weights: the weights check needs at least one scan"),
        ("checks = support\nsupport = ;\n", "support: the support check needs at least one mode"),
        ("checks = lieb\nlieb_p = 0.5\n", "lieb_p: p must be >= 1, got 0.5"),
        (
            "checks = weights\nweights = radial_half p=1 radii=1:2:3\n",
            "weights: growth scan needs at least 4 radii, got 3",
        ),
        ("checks = weights\nweights = radial_half p=1 radii=3:2:1:4\n", "weights: radii must be strictly increasing"),
        # a check named twice ran twice and kept one report entry
        ("checks = lieb, isometry, lieb\n", "checks: check 'lieb' is named more than once"),
        # a negative tolerance failed every ratio or fit it judged
        ("checks = lieb\nlieb_equality_tol = -1\n", "lieb_equality_tol: a tolerance must be >= 0, got -1"),
        ("checks = lieb\nlieb_equality_tol = -1e-300\n", "lieb_equality_tol: a tolerance must be >= 0, got -1e-300"),
        (
            "checks = weights\nweights = radial_half p=1 slope=1 slope_tol=-0.1\n",
            "weights: slope_tol must be >= 0, got -0.1",
        ),
    ],
)
def test_load_config_applies_config_only_rules(tmp_path, body, message):
    config = write_config(tmp_path, f"[a]\nchecks = isometry\n[s]\n{body}")
    with pytest.raises(cli.ConfigError, match=rf"^\[s\] {message}"):
        cli.load_config(config)


def test_load_config_accepts_zero_tolerances(tmp_path):
    body = "checks = lieb, weights\nlieb_equality_tol = 0\nweights = radial_half p=1 slope=1 slope_tol=0\n"
    (scn,) = cli.load_config(write_config(tmp_path, f"[s]\n{body}"))
    assert scn.options["lieb_equality_tol"] == 0.0
    assert scn.options["weights"][0].slope_tol == 0.0


@pytest.mark.parametrize(
    "body, message",
    [
        ("checks = weights\nweights = radial_half p=1 radii=1:2:3:100\n", "weights: R=100.0 exceeds grid half-extent 8.0"),
        (
            "count = 64\nf = gaussian:a=16\ng = gaussian:a=16\nchecks = weights\nweights = radial_half p=1\n",
            "weights: R=6.0 exceeds grid half-extent 2.0",
        ),
        (
            "checks = weights\nweights = radial_half p=1 field=pair radii=1:2:3:8.5\n",
            "weights: R=8.5 exceeds grid half-extent 8.0",
        ),
        ("checks = rotation\nrotation_z = 0.01 0\n", "rotation_z: translation 0.01 is not a lattice multiple of step 0.0625"),
        ("step = 0.1\nchecks = identity\n", "step: asymmetric grid: "),
        ("step = 0.1\nchecks = rotation\n", "step: asymmetric grid: "),
        # the shifted f is zero on the window: the run ended in ZeroDivisionError
        ("checks = rotation\nrotation_z = 100 0\n", "rotation_z: the shift (100.0, 0.0) leaves f zero on the whole window"),
    ],
)
def test_load_config_applies_layout_rules(tmp_path, capsys, body, message):
    # each was refused only at run time, after sampling and computing
    out = tmp_path / "out"
    assert cli.main(["run", write_config(tmp_path, f"[s]\n{body}"), "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith(f"error: [s] {message}")
    assert not out.exists()


def test_rotation_shift_near_the_edge_still_runs(tmp_path):
    (scn,) = cli.load_config(write_config(tmp_path, "[s]\nchecks = rotation\nrotation_z = 7 0\n"))
    report, _ = cli.run_scenario(scn)
    assert report["passed"] and report["checks"]["rotation"]["shifts"][0]["defect"] < 1e-15


def test_huge_gaussian_width_loads(tmp_path):
    # 2a overflowed the amplitude, and a pi the exponent at t = 0 (inf * 0)
    (scn,) = cli.load_config(write_config(tmp_path, "[s]\nf = gaussian:a=1e308\nchecks = isometry\n"))
    samples = scn.signals["gaussian:a=1e308"].samples
    k = scn.layout.count // 2
    assert samples[k] == tfu.unit_gaussian(1e308).amplitude == pytest.approx(1.189207115002721e77)
    assert not np.delete(samples, k).any()


#: Messages of the layout rules, which a scenario that loads must never raise.
_LAYOUT_RULES = ("asymmetric grid", "off-plane grid", "lattice multiple", "half-extent", "identically zero")


@settings(derandomize=True, database=None, deadline=None, max_examples=100)
@given(
    count=st.sampled_from([64, 100, 144, 196]),
    step=st.none() | st.floats(0.05, 0.5),
    checks=st.sampled_from(["identity", "rotation", "weights", "identity, rotation, weights"]),
    radii=st.lists(st.floats(0.25, 6.0), min_size=4, max_size=5, unique=True).map(sorted),
    shift=st.tuples(st.floats(-1.5, 1.5), st.sampled_from([0.0, 0.0, 0.0, 0.5]), st.floats(-2, 2)),
)
def test_loaded_scenario_never_breaks_a_layout_rule(tmp_path_factory, count, step, checks, radii, shift):
    # step None draws the self-dual layout, 1/sqrt(count). The shift z is
    # (k + frac) * step, with k the nearest integer to share * count: beyond
    # a share of 1 the shift leaves the window
    step = 1 / math.sqrt(count) if step is None else step
    share, frac, zeta = shift
    rotation_z = f"{(round(share * count) + frac) * step!r} {zeta!r}"
    path = tmp_path_factory.getbasetemp() / "layout.ini"
    path.write_text(
        f"[s]\ncount = {count}\nstep = {step!r}\nchecks = {checks}\nrotation_z = {rotation_z}\n"
        f"weights = radial_half p=1 radii={':'.join(map(repr, radii))}\n",
        encoding="utf-8",
    )
    try:
        (scn,) = cli.load_config(path)
    except cli.ConfigError as exc:
        key = re.match(r"\[s\] (\w+): ", str(exc))
        assert key and key.group(1) in cli._KEYS, str(exc)
        return
    try:
        cli.run_scenario(scn)
    except ValueError as exc:
        assert not any(rule in str(exc) for rule in _LAYOUT_RULES), str(exc)


@pytest.mark.parametrize(
    "key, value",
    [
        ("f", "gaussian:a=0.001"),  # ran, and failed its isometry and Lieb checks
        ("g", "hermite:n=1:z=7.5"),
        ("identity_tuples", "gaussian:a=1, gaussian:a=1, gaussian:a=0.001, gaussian:a=1"),
    ],
)
def test_load_config_rejects_truncated_signals(tmp_path, key, value):
    config = write_config(tmp_path, f"[s]\nchecks = isometry, identity\n{key} = {value}\n")
    with pytest.raises(cli.ConfigError, match=rf"^\[s\] {key}: .*truncation unsound"):
        cli.load_config(config)


@pytest.mark.parametrize(
    "key, value, what",
    [
        ("f", "gaussian:z=1e200", "f"),  # underflows to 0; failed at run time as a degenerate pair
        (  # passed vacuously with defect 0
            "identity_tuples",
            "gaussian:a=1:amp=0, gaussian:a=1, gaussian:a=1, gaussian:a=1",
            "identity_tuples: gaussian:a=1:amp=0",
        ),
    ],
)
def test_load_config_rejects_zero_signals(tmp_path, capsys, key, value, what):
    config = write_config(tmp_path, f"[s]\nchecks = isometry, identity\n{key} = {value}\n")
    out = tmp_path / "out"
    assert cli.main(["run", config, "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: [s] {what}: signal is zero on the whole window\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "w, message",
    [
        ("1e200", "signal is zero on the whole window\n"),  # the transform sits at xi = 1e200
        ("7.5", "truncation unsound: "),  # the transform is not decayed at the dual window's edge
    ],
)
def test_load_config_samples_the_pair_exact_transform(tmp_path, capsys, w, message):
    body = f"[s]\nf = gaussian:a=1:w={w}\nchecks = weights\nweights = radial_half p=1 field=pair_exact\n"
    out = tmp_path / "out"
    assert cli.main(["run", write_config(tmp_path, body), "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith(f"error: [s] weights: field=pair_exact: {message}")
    assert not out.exists()


def test_pair_exact_scenario_samples_only_at_load(tmp_path, monkeypatch):
    config = write_config(tmp_path, "[s]\nchecks = weights\nweights = radial_full p=2 field=pair_exact\n")
    calls = []
    sample = cli.sample
    monkeypatch.setattr(cli, "sample", lambda *a: calls.append(a[0]) or sample(*a))
    (scn,) = cli.load_config(config)
    assert calls == [scn.options["f"].fn, tfu.fourier_closed_form(scn.options["f"].fn)]
    report, _ = cli.run_scenario(scn)
    assert report["passed"] and len(calls) == 2


def test_scenario_samples_each_function_once_at_load(tmp_path, monkeypatch):
    suite = configparser.ConfigParser(interpolation=None)
    suite.read(cli._resolve_config("paper-suite"), encoding="utf-8")
    section = configparser.ConfigParser(interpolation=None)
    section.read_dict({"identity-tuples": suite["identity-tuples"]})
    config = tmp_path / "config.ini"
    with open(config, "w", encoding="utf-8") as fh:
        section.write(fh)
    calls = []
    sample = cli.sample
    monkeypatch.setattr(cli, "sample", lambda *a: calls.append(a[0]) or sample(*a))
    (scn,) = cli.load_config(config)
    assert len(calls) == 3  # gaussian:a=1, hermite:n=1, hermite:n=2
    report, _ = cli.run_scenario(scn)
    assert report["passed"] and len(calls) == 3


def test_overflowing_step_runs_without_runtime_warnings(tmp_path):
    # u^2 overflows far from the peak; the run used to sample again and warn
    config = write_config(tmp_path, "[s]\nstep = 1e200\nchecks = isometry\n")
    out = tmp_path / "out"
    env = dict(os.environ, PYTHONPATH=str(Path(tfu.__file__).parent.parent))
    argv = [sys.executable, "-W", "error::RuntimeWarning", "-m", "tfu.cli", "run", config, "--out", str(out)]
    proc = subprocess.run(argv + ["--no-timestamp"], env=env, capture_output=True, text=True, timeout=120)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "pass  s\n", "")
    assert cli.main(["run", config, "--out", str(tmp_path / "inproc"), "--no-timestamp"]) == 0
    assert (out / "s.json").read_bytes() == (tmp_path / "inproc" / "s.json").read_bytes()


def test_export_stft_rejects_truncated_signals(tmp_path, capsys):
    path = tmp_path / "v.csv"
    argv = ["export-stft", "--f", "gaussian:a=0.001", "--g", "gaussian:a=1", "--out", str(path)]
    assert cli.main(argv) == 1
    assert capsys.readouterr().err.startswith("error: --f: truncation unsound: ")
    assert not path.exists()


def test_every_key_has_a_non_default_user():
    # a key that no config sets to anything but its default is a constant,
    # and a check that no scenario enables is dead code
    used, enabled = set(), set()
    for path in (cli._resolve_config("paper-suite"), Path(__file__).parent / "golden/large_grid/large_grid.ini"):
        config = configparser.ConfigParser(interpolation=None)
        config.read(path, encoding="utf-8")
        for section in config.sections():
            for name, raw in config.items(section):
                if cli._KEYS[name].parse(raw) != cli._KEYS[name].default:
                    used.add(name)
            enabled.update(cli._KEYS["checks"].parse(config.get(section, "checks")))
    assert used == set(cli._KEYS)
    assert enabled == set(cli.CHECKS)


@pytest.mark.parametrize("name", ["summary", "../x", "a/b", ".."])
def test_load_config_keeps_reports_inside_out(tmp_path, name):
    # [summary] would overwrite summary.json, [../x] write x.json beside --out
    config = write_config(tmp_path, f"[ok]\nchecks = isometry\n[{name}]\nchecks = isometry\n")
    with pytest.raises(cli.ConfigError, match=rf"^\[{re.escape(name)}\] "):
        cli.load_config(config)


_TOKENS = (
    ["inf", "nan", "1e400", "1e-320", "1e200", "", "0", "-1", "0.5", "1", "2", "16", "1024"]
    + list(cli.CHECKS)
    + ["gaussian", "hermite", "radial_half", "demange", "l1_fraction", "lp_vs_l1p"]
    + ["a=", "n=", "z=", "w=", "amp=", "p=", "N=", "eps=", "field=closed", "radii=", "expect=unsatisfiable"]
    + [";", ",", ":", " "]
)
_SECTIONS = st.dictionaries(
    st.sampled_from(sorted(cli._KEYS) + RETIRED_KEYS + ["frequency"]),
    st.lists(st.sampled_from(_TOKENS), max_size=8).map("".join),
    max_size=6,
)


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@example({"s": {"checks": "isometry", "step": "1e200"}})  # u^2 overflows while sampling
@example({"s": {"checks": "isometry", "step": "1e200", "g": "hermite:n=2"}})
@given(st.dictionaries(st.sampled_from(["s", "t", "summary", "../x"]), _SECTIONS, min_size=1, max_size=3))
def test_load_config_returns_or_names_the_section(tmp_path_factory, config):
    path = tmp_path_factory.getbasetemp() / "generated.ini"
    text = ""
    for name, keys in config.items():
        text += f"[{name}]\n" + "".join(f"{key} = {value}\n" for key, value in keys.items())
    path.write_text(text, encoding="utf-8")
    try:
        cli.load_config(path)
    except cli.ConfigError as exc:
        assert any(str(exc).startswith(f"[{name}] ") for name in config), str(exc)


_PARSERS = [
    specs.parse_function_spec,
    specs.parse_weight_scan,
    specs.parse_support_mode,
    specs.identity_tuple,
    specs.shift_pair,
    specs.finite_floats,
    specs.lieb_exponents,
    specs.signal_count,
    specs.signal_step,
]


@pytest.mark.parametrize("parse", _PARSERS, ids=lambda parse: parse.__name__)
@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(st.one_of(st.text(), st.lists(st.sampled_from(_TOKENS + ["1j", "1e308", "radii=1:2", "99999"])).map("".join)))
def test_spec_parsers_raise_only_value_errors(parse, raw):
    try:
        parse(raw)
    except ValueError:
        pass


def test_scenario_computes_its_stft_once(tmp_path, monkeypatch):
    # every STFT row, whether compute_stft's or a row source's, is one row
    # of the centered FFT in tfu.stft: a second V would count 512 rows
    rows = []
    fft = stft._centered_fft
    monkeypatch.setattr(stft, "_centered_fft", lambda values, step: rows.append(len(values)) or fft(values, step))
    config = write_config(
        tmp_path,
        "[s]\nchecks = isometry, closed_form, lieb, weights, support\n"
        "weights = radial_half p=1\nsupport = l1_fraction p=2 eps=0.1\n",
    )
    (scn,) = cli.load_config(config)
    report, _ = cli.run_scenario(scn)
    assert report["passed"] and sum(rows) == scn.layout.count


@pytest.mark.parametrize("layout", ["", "count = 1024\nstep = 0.03125\n"], ids=["default", "large"])
@pytest.mark.parametrize("orders", [("support, lieb", "lieb, support"), ("weights, support", "support, weights")])
def test_entries_do_not_depend_on_which_check_owns_the_field(tmp_path, layout, orders):
    # the last check that reads |V| owns it: support then sorts it in place,
    # and the last scan of it forms its integrand in it; in the other order
    # that check shares it, sorted and scanned in fresh arrays
    body = (
        "f = hermite:n=1\nlieb_p = 1, 1.5, 2, 3.7\n"
        "weights = radial_half p=1; hyperbolic p=2 radii=1:2:4:8\n"
        "support = l1_fraction p=2 eps=0.1; lp_vs_l1p p=1.5 eps=0.1; lp_vs_energy p=2.5 eps=0.25; lp_vs_l1p p=1.2 eps=0.3\n"
    )
    runs = []
    for checks in orders:
        (scn,) = cli.load_config(write_config(tmp_path, f"[s]\n{layout}checks = {checks}\n{body}"))
        runs.append(cli.run_scenario(scn))
    (first, first_tables), (second, second_tables) = runs
    assert first["checks"] == second["checks"] and first_tables == second_tables


def test_scenarios_compute_each_member_once_and_only_if_declared(monkeypatch):
    # run_scenario drops a context member after the last check that declares
    # it (Check.reads): a check that read it undeclared after that would
    # compute it again, and one that no enabled check declares not at all
    computed = collections.Counter()

    def counting(compute):
        @functools.wraps(compute)
        def counted(ctx):
            computed[compute.__name__] += 1
            return compute(ctx)

        return counted

    members = [name for name, value in vars(cli.ScenarioContext).items() if isinstance(value, cli._cached)]
    assert set(members) == {"stft", "norms", "closed", "pair", "pair_exact"}
    for name in members:
        monkeypatch.setattr(cli.ScenarioContext, name, cli._cached(counting(vars(cli.ScenarioContext)[name].compute)))
    large_grid = Path(__file__).parent / "golden/large_grid/large_grid.ini"
    for scn in cli.load_config(cli._resolve_config("paper-suite")) + cli.load_config(large_grid):
        computed.clear()
        cli.run_scenario(scn)
        declared = {member for name in scn.options["checks"] for member in cli.CHECKS[name].reads(scn.options)}
        assert set(computed) <= declared, scn.name
        assert set(computed.values()) <= {1}, (scn.name, computed)


def test_lieb_p_beyond_the_float_range_is_an_error_on_both_layouts(tmp_path):
    # (2/p) (|f| |g|)^p underflows at N = 1024, and at N = 256 the |V|^p sum
    # does, which read as ZeroDivisionError and as an empty pass with ratio 0
    config = write_config(
        tmp_path,
        "[default]\nchecks = lieb\nlieb_p = 1e300\n"
        "[large]\ncount = 1024\nstep = 0.03125\nchecks = lieb\nlieb_p = 1e300\n",
    )
    out = tmp_path / "out"
    assert cli.main(["run", config, "--out", str(out), "--no-timestamp"]) == 1
    errors = read_json(out / "summary.json")["errors"]
    assert [e.split(":", 2)[:2] for e in errors] == [["[default] lieb", " p = 1e+300"], ["[large] lieb", " p = 1e+300"]]
    assert all("underflows" in e for e in errors)


def test_readme_check_table_lists_the_registry():
    readme = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")
    section = readme[readme.index("The available checks") : readme.index("Weight scan specs")]
    rows = re.findall(r"^\| `(\w+)` *\|(.*)\|$", section, flags=re.MULTILINE)
    table = {check: set(re.findall(r"`(\w+)`", keys)) for check, keys in rows}
    assert table == {name: set(check.keys) for name, check in cli.CHECKS.items()}


def test_readme_names_only_exported_library_names():
    readme = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")
    named = set(re.findall(r"\btfu\.(\w+)\b(?!\.)", readme))
    assert named and named <= set(tfu.__all__), sorted(named - set(tfu.__all__))
    assert all(hasattr(tfu, name) for name in tfu.__all__)
