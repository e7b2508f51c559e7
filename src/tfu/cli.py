"""Command-line front end.

Subcommands:

    tfu run <config> --out <dir> [--no-timestamp] [--scenario <name>]
    tfu export-stft --f <spec> --g <spec> --out <file> [--count N] [--step S]
    tfu bounds --mode <variant> --p <p> --eps <e> [--d <d>]

Configs are INI files: one section per scenario, flat keys (see the bundled
"paper-suite" config). SCENARIO_KEYS and the check registry CHECKS declare
each key once, with its parser (tfu.specs) and default; pass thresholds are
the *_TOL constants. Before any scenario runs, load_config parses every
value (count and step by SignalLayout's own rules), samples each distinct
function once, refusing one that is zero or not decayed at the window edge
(as export-stft does), and calls each enabled check's validate(scn, grid)
with the scenario and the plane of its layout: the library's own rules, and
for a pair_exact scan the sampling of f's closed-form transform. A bad
scenario aborts naming its "[section] key". A check is a function of a
ScenarioContext and of its own keys; the context holds the scenario's
samples and computes what its checks share on first use. A check that
cannot run is reported as "[section] check: reason".

`run` writes one JSON report per scenario plus CSV tables for sweeps, and
exits 0 only if every enabled assertion passed (2 on assertion failure, 1
on configuration or runtime errors; the other scenarios' reports and
summary.json are still written). Scenario runs are independent and may
execute concurrently: by default on min(4, usable CPUs, scenarios) worker
threads, where the usable CPUs are the process's CPU affinity set (else
os.cpu_count()); TFU_THREADS sets the worker cap instead, even above the CPU
count. Report files are written atomically, and with --no-timestamp two runs
of the same config are byte-identical, whatever the worker count.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path
from typing import Callable, Iterable, Iterator, NamedTuple, TextIO

import numpy as np

from tfu.core import (
    BOUNDARY_DECAY_TOL_1D,
    DEFAULT_LAYOUT,
    SampledSignal,
    SignalLayout,
    TFArray,
    TFGrid,
    TFModulus,
    _cached,
    _moduli,
    _modulus,
    _require_decayed,
    discrete_fourier,
)
from tfu.identity import _require_rotatable, build_auxiliary, fundamental_identity_defect, rotation_invariance_defect
from tfu.reference import _gaussian_rows, fourier_closed_form, sample, translate_modulate
from tfu.specs import (
    _VARIANTS,
    ConfigError,
    FunctionSpec,
    each,
    finite_float,
    function_spec,
    identity_tuple,
    lieb_exponents,
    parse_function_spec,  # noqa: F401 (the benchmark parses export specs as cli.parse_function_spec)
    parse_support_mode,
    parse_weight_scan,
    positive_int,
    shift_pair,
    signal_count,
    signal_step,
    split_list,
    tolerance,
)
from tfu.stft import _stft_rows, compute_stft, energy_defect
from tfu.support import SupportMode, _greedy_supports, lieb_ratio, lower_bound
from tfu.weights import _pair_rows, decay_fit, growth_scan, require_inside

#: Fixed pass thresholds; a config sets only lieb_equality_tol and a scan's slope_tol.
ISOMETRY_TOL = CLOSED_FORM_TOL = 1e-8
IDENTITY_TOL = ROTATION_TOL = LIEB_DIR_TOL = 1e-6
DECAY_PRODUCT_TOL = 1e-2


# ---------------------------------------------------------------------------
# scenarios and the per-scenario context


@dataclass
class Scenario:
    name: str
    layout: SignalLayout
    options: dict[str, object]  # every key -> its parsed value or default
    signals: dict[str, SampledSignal]  # function spec text -> its samples on layout
    fhat: SampledSignal | None = None  # f's closed-form transform on the dual layout, for pair_exact scans


class ScenarioContext:
    """What the checks of one scenario share: the scenario's samples, and
    fields and norms computed on first use. A field is held as its modulus
    (tfu.core.TFModulus), as every check that reads one reads only |.|: it
    is filled by tfu.core._moduli, one block of rows at a time, from the
    field's row source (tfu.core.Rows), the one that compute_stft,
    gaussian_stft_field or pair_field fills over the whole plane
    (tfu.core._fill), so no complex field is held. When
    closed_form is enabled, stft and closed are filled together, in the one
    pass that also takes the deviation between them (closed_deviation).
    run_scenario drops each member, with a field's sort, after the last
    check that declares it (Check.reads); one read after that would compute
    it again. That check owns the member (owned): its last read of a field
    takes it (take), so that the check's functionals may overwrite its |V|
    (support sorts it in place, a growth scan forms its integrand in it);
    the context forgets it then. Every other read shares the held field,
    which no one overwrites."""

    def __init__(self, scn: Scenario) -> None:
        self.signals, self.fhat = scn.signals, scn.fhat
        self.f_spec: FunctionSpec = scn.options["f"]
        self.g_spec: FunctionSpec = scn.options["g"]
        self.f, self.g = self.signals[self.f_spec.text], self.signals[self.g_spec.text]
        self.grid = TFGrid.from_layout(scn.layout)
        self._paired = "closed_form" in scn.options["checks"]
        self._deviation: float | None = None
        self.owned: set[str] = set()  # the members the running check owns (run_scenario)

    @_cached
    def stft(self) -> TFModulus:
        """|V_g f| on the scenario's grid."""
        if self._paired:
            return self._stft_and_closed()[0]
        return _modulus(self.grid, _stft_rows(self.f, self.g, self.grid))

    @_cached
    def norms(self) -> tuple[float, float]:
        """|f|_2 and |g|_2."""
        return self.f.l2_norm(), self.g.l2_norm()

    @_cached
    def closed(self) -> TFModulus:
        """|.| of the exact Gaussian-pair STFT, which is V_g f for the unit
        pair that load_config requires of the checks that use it."""
        if self._paired:
            return self._stft_and_closed()[1]
        return _modulus(self.grid, _gaussian_rows(self.grid))

    @_cached
    def pair(self) -> TFModulus:
        """|f(x) fhat(xi)| with the numeric transform of f."""
        return _modulus(*_pair_rows(self.f))

    @_cached
    def pair_exact(self) -> TFModulus:
        """|f(x) fhat(xi)| with the closed-form transform samples taken at load."""
        return _modulus(*_pair_rows(self.f, self.fhat))

    @property
    def closed_deviation(self) -> float:
        """max |V_g f - closed|, taken in the pass that fills stft and closed."""
        if self._deviation is None:
            self._stft_and_closed()
        return self._deviation

    def _stft_and_closed(self) -> tuple[TFModulus, TFModulus]:
        """One pass over the rows of V_g f and of the closed form: both
        moduli, cached as stft and closed, and the deviation between them."""
        (stft, closed), self._deviation = _moduli(
            self.grid, _stft_rows(self.f, self.g, self.grid), _gaussian_rows(self.grid)
        )
        self.__dict__.update(stft=stft, closed=closed)
        return stft, closed

    def drop(self, name: str) -> None:
        """Forget the computed value of name, one of the cached members above, if any."""
        self.__dict__.pop(name, None)

    def take(self, name: str) -> TFModulus:
        """The field name, for the running check's last read of it. If the
        check owns it, the field is forgotten and released (TFModulus._release):
        the functionals it is given may overwrite it, and a later read
        computes it again. Otherwise the held field, read only."""
        field = getattr(self, name)
        if name in self.owned:
            self.drop(name)
            field._release()
        return field


# ---------------------------------------------------------------------------
# checks: each returns its report entry and its CSV tables

#: suffix -> (header, rows); _write_csv formats the cells
Tables = dict[str, tuple[list[str], list[list]]]

_SUPPORT_HEADER = "variant p epsilon satisfiable cells measured_area lower_bound bound_holds note".split()


def _all_passed(entries: Iterable[dict]) -> bool:
    return all(e["passed"] for e in entries)


def _isometry(ctx: ScenarioContext) -> tuple[dict, Tables]:
    defect = energy_defect(ctx.stft, *ctx.norms)
    return {"defect": defect, "tolerance": ISOMETRY_TOL, "passed": defect < ISOMETRY_TOL}, {}


def _closed_form(ctx: ScenarioContext) -> tuple[dict, Tables]:
    dev = ctx.closed_deviation
    return {"max_abs_deviation": dev, "tolerance": CLOSED_FORM_TOL, "passed": dev < CLOSED_FORM_TOL}, {}


def _identity(ctx: ScenarioContext, identity_tuples) -> tuple[dict, Tables]:
    results = []
    for specs in identity_tuples or ((ctx.f_spec, ctx.f_spec, ctx.g_spec, ctx.g_spec),):
        defect = fundamental_identity_defect(*(ctx.signals[s.text] for s in specs), ctx.grid)
        functions = [s.text for s in specs]
        results.append({"functions": functions, "defect": defect, "passed": defect < IDENTITY_TOL})
    return {"tolerance": IDENTITY_TOL, "tuples": results, "passed": _all_passed(results)}, {}


def _rotation(ctx: ScenarioContext, rotation_z) -> tuple[dict, Tables]:
    results = []
    for z, zeta in rotation_z:
        try:
            defect = rotation_invariance_defect(build_auxiliary(ctx.f, ctx.g, ctx.grid, z, zeta))
        except ValueError as exc:
            raise ValueError(f"rotation_z ({z}, {zeta}): {exc}") from exc
        results.append({"z": z, "zeta": zeta, "defect": defect, "passed": defect < ROTATION_TOL})
    return {"tolerance": ROTATION_TOL, "shifts": results, "passed": _all_passed(results)}, {}


def _lieb(ctx: ScenarioContext, lieb_p, lieb_equality_tol) -> tuple[dict, Tables]:
    entries = []
    for p in lieb_p:
        ratio = lieb_ratio(ctx.stft, p, *ctx.norms)
        if p > 2:
            ok = ratio <= 1 + LIEB_DIR_TOL
        elif p < 2:
            ok = ratio >= 1 - LIEB_DIR_TOL
        else:
            ok = abs(ratio - 1) <= LIEB_DIR_TOL
        if lieb_equality_tol is not None:
            ok = ok and abs(ratio - 1) <= lieb_equality_tol
        entries.append({"p": p, "ratio": ratio, "passed": ok})
    entry = {"direction_tolerance": LIEB_DIR_TOL, "ratios": entries, "passed": _all_passed(entries)}
    return entry, {"lieb": (["p", "ratio"], [[e["p"], e["ratio"]] for e in entries])}


def _weights(ctx: ScenarioContext, weights) -> tuple[dict, Tables]:
    entries, rows = [], []
    last = {ws.source: i for i, ws in enumerate(weights)}  # the last scan of each source takes it
    for i, ws in enumerate(weights):
        field = ctx.take(ws.source) if last[ws.source] == i else getattr(ctx, ws.source)
        report = growth_scan(field, ws.weight, ws.radii)
        del field  # an owned field, overwritten, is freed here
        ok = report.verdict == ws.expect
        if ws.slope is not None:
            ok = ok and abs(report.fitted_exponent - ws.slope) <= ws.slope_tol
        entries.append(
            {
                "scan": ws.label,
                "expected": ws.expect,
                "verdict": report.verdict,
                "fitted_exponent": report.fitted_exponent,
                "note": report.note,
                "passed": ok,
            }
        )
        for r, m in zip(report.radii, report.masses):
            rows.append([ws.family, ws.weight.p, ws.weight.N, ws.source, r, m])
    header = ["family", "p", "N", "field", "R", "mass"]
    return {"scans": entries, "passed": _all_passed(entries)}, {"growth": (header, rows)}


def _support(ctx: ScenarioContext, support) -> tuple[dict, Tables]:
    entries, rows = [], []
    reports = _greedy_supports(ctx.take("stft"), [mode for mode, _ in support], *ctx.norms)
    for (mode, expect), rep in zip(support, reports):
        if expect == "unsatisfiable":
            ok = not rep.satisfiable
        else:
            ok = rep.satisfiable and bool(rep.bound_holds)
        entry = {
            "variant": mode.variant.value,
            "p": mode.p,
            "epsilon": mode.epsilon,
            "satisfiable": rep.satisfiable,
            "measured_area": rep.measured_area,
            "lower_bound": rep.lower_bound,
            "cells": rep.cells,
            "note": rep.note,
            "expected": expect,
            "passed": ok,
        }
        entries.append(entry)
        row = entry | {"bound_holds": rep.bound_holds}
        rows.append([row[key] for key in _SUPPORT_HEADER])
    return {"modes": entries, "passed": _all_passed(entries)}, {"support": (_SUPPORT_HEADER, rows)}


def _decay(ctx: ScenarioContext) -> tuple[dict, Tables]:
    a_time = decay_fit(ctx.f)
    a_freq = decay_fit(discrete_fourier(ctx.f))
    product = a_time * a_freq
    return {
        "fit_time": a_time,
        "fit_frequency": a_freq,
        "product": product,
        "tolerance": DECAY_PRODUCT_TOL,
        "passed": abs(product - 1.0) <= DECAY_PRODUCT_TOL,
    }, {}


# ---------------------------------------------------------------------------
# rules that a scenario's parsed options and grid decide, applied at load


def _rule(key: str, rule: Callable[..., object], *args: object) -> object:
    """rule(*args), one of the library's own rules, refusing as "key: reason"."""
    try:
        return rule(*args)
    except ValueError as exc:
        raise ConfigError(f"{key}: {exc}") from exc


def _require_unit_pair(opts: dict[str, object], what: str) -> None:
    if not opts["f"].fn == opts["g"].fn == _UNIT_GAUSSIAN.fn:
        raise ConfigError(f"{what} requires the unit gaussian pair f = g = gaussian:a=1")


def _require_entry(opts: dict[str, object], key: str, entry: str) -> None:
    if not opts[key]:
        raise ConfigError(f"{key}: the {key} check needs at least one {entry}")


def _validate_identity(scn: Scenario, grid: TFGrid) -> None:
    _rule("step", _require_rotatable, grid)


def _validate_rotation(scn: Scenario, grid: TFGrid) -> None:
    _validate_identity(scn, grid)
    f = scn.signals[scn.options["f"].text]
    for z, zeta in scn.options["rotation_z"]:
        if not _rule("rotation_z", translate_modulate, f, z, zeta).samples.any():
            raise ConfigError(f"rotation_z: the shift ({z}, {zeta}) leaves f zero on the whole window")


def _validate_weights(scn: Scenario, grid: TFGrid) -> None:
    opts = scn.options
    _require_entry(opts, "weights", "scan")
    if any(ws.source == "closed" for ws in opts["weights"]):
        _require_unit_pair(opts, "weights: field=closed")
    for ws in opts["weights"]:  # every field source lives on the scenario's grid
        _rule("weights", require_inside, grid, ws.radii[-1])
    if any(ws.source == "pair_exact" for ws in opts["weights"]):
        spec = FunctionSpec(opts["f"].text, fourier_closed_form(opts["f"].fn))
        scn.fhat = _sample_signals([("weights: field=pair_exact", spec)], scn.layout.dual())[spec.text]


def _sample_signals(named: Iterable[tuple[str, FunctionSpec]], layout: SignalLayout) -> dict[str, SampledSignal]:
    """Each distinct spec's samples on the layout, keyed by its text. A function
    that is zero on the whole window, or not decayed at its edge where the
    transforms truncate it, is refused as "what: reason"."""
    signals: dict[str, SampledSignal] = {}
    for what, spec in named:
        if spec.text in signals:
            continue
        try:
            # u^2 may overflow far from the peak, which takes exp(-a pi u^2)
            # to its limit 0; SampledSignal refuses any sample left non-finite
            with np.errstate(over="ignore", invalid="ignore"):
                signal = sample(spec.fn, layout)
            if not signal.samples.any():
                raise ValueError("signal is zero on the whole window")
            _require_decayed(signal.samples, BOUNDARY_DECAY_TOL_1D)
        except ValueError as exc:
            raise ConfigError(f"{what}: {exc}") from exc
        signals[spec.text] = signal
    return signals


# ---------------------------------------------------------------------------
# the registry


class Key(NamedTuple):
    parse: Callable[[str], object]
    default: object  # already parsed


class Check(NamedTuple):
    """A check's own keys and its run(ctx, **values) -> (entry, tables), where
    values maps each key to its parsed value. validate(scn, grid), when given,
    raises ValueError at load time if the scenario being built (its layout,
    options and samples) or its TFGrid.from_layout grid breaks a rule of the
    check that needs no field; it may sample what run needs, as scn.fhat.
    reads(options) names the ScenarioContext members that run reads, for
    the scenario's options: run_scenario drops each after its last reader."""

    keys: dict[str, Key]
    run: Callable[..., tuple[dict, Tables]]
    validate: Callable[[Scenario, TFGrid], None] | None = None
    reads: Callable[[dict[str, object]], Iterable[str]] = lambda options: ()


def _reading(*names: str) -> Callable[[dict[str, object]], Iterable[str]]:
    return lambda options: names


CHECKS: dict[str, Check] = {
    "isometry": Check({}, _isometry, reads=_reading("stft", "norms")),
    "closed_form": Check(
        {},
        _closed_form,
        lambda scn, _: _require_unit_pair(scn.options, "checks: closed_form"),
        _reading("stft", "closed"),
    ),
    "identity": Check({"identity_tuples": Key(each(identity_tuple), ())}, _identity, _validate_identity),
    "rotation": Check({"rotation_z": Key(each(shift_pair), ((0.0, 0.0),))}, _rotation, _validate_rotation),
    "lieb": Check(
        {"lieb_p": Key(lieb_exponents, (2.0,)), "lieb_equality_tol": Key(tolerance, None)},
        _lieb,
        reads=_reading("stft", "norms"),
    ),
    "weights": Check(
        {"weights": Key(each(parse_weight_scan), ())},
        _weights,
        _validate_weights,
        lambda options: [ws.source for ws in options["weights"]],
    ),
    "support": Check(
        {"support": Key(each(parse_support_mode), ())},
        _support,
        lambda scn, _: _require_entry(scn.options, "support", "mode"),
        _reading("stft", "norms"),
    ),
    "decay": Check({}, _decay),
}


def _check_names(raw: str) -> tuple[str, ...]:
    names = tuple(split_list(raw))
    for i, name in enumerate(names):
        if name not in CHECKS:
            raise ConfigError(f"unknown check '{name}'")
        if name in names[:i]:
            raise ConfigError(f"check '{name}' is named more than once")
    return names


_UNIT_GAUSSIAN = function_spec("gaussian:a=1")

#: Keys every scenario has, whatever its checks.
SCENARIO_KEYS: dict[str, Key] = {
    "f": Key(function_spec, _UNIT_GAUSSIAN),
    "g": Key(function_spec, _UNIT_GAUSSIAN),
    "checks": Key(_check_names, ()),
    "count": Key(signal_count, DEFAULT_LAYOUT.count),
    "step": Key(signal_step, DEFAULT_LAYOUT.step),
}

_KEYS = SCENARIO_KEYS | {name: key for check in CHECKS.values() for name, key in check.keys.items()}


# ---------------------------------------------------------------------------
# config loading and scenario execution


def load_config(path: Path) -> list[Scenario]:
    import configparser

    parser = configparser.ConfigParser(interpolation=None)
    try:
        with open(path, "r", encoding="utf-8") as fh:
            parser.read_file(fh)
    except (configparser.Error, OSError) as exc:
        raise ConfigError(f"cannot parse config {path}: {exc}") from exc
    scenarios = []
    for section in parser.sections():
        # the reports are <section>.json and <section>__<table>.csv in --out
        if section in (".", "..", "summary") or "\0" in section or os.path.basename(section) != section:
            raise ConfigError(f"[{section}] scenario names must be single file names other than 'summary'")
        opts = {name: key.default for name, key in _KEYS.items()}
        for name, raw in parser.items(section):
            if name not in _KEYS:
                raise ConfigError(f"[{section}] unknown key '{name}'")
            try:
                opts[name] = _KEYS[name].parse(raw)
            except ValueError as exc:
                raise ConfigError(f"[{section}] {name}: {exc}") from exc
        if not opts["checks"]:
            raise ConfigError(f"[{section}] enables no checks")
        try:
            layout = SignalLayout(count=opts["count"], step=opts["step"])  # its rules ran in the count and step parsers
            named = [("f", opts["f"]), ("g", opts["g"])]
            named += [(f"identity_tuples: {s.text}", s) for row in opts["identity_tuples"] for s in row]
            scn = Scenario(section, layout, opts, _sample_signals(named, layout))
            grid = TFGrid.from_layout(layout)  # a layout whose signals decay has a finite dual step
            for check in (CHECKS[name] for name in opts["checks"]):
                if check.validate is not None:
                    check.validate(scn, grid)
        except ValueError as exc:
            raise ConfigError(f"[{section}] {exc}") from exc
        scenarios.append(scn)
    if not scenarios:
        raise ConfigError(f"config {path} defines no scenarios")
    return scenarios


def run_scenario(scn: Scenario) -> tuple[dict, Tables]:
    """The scenario's report and CSV tables. The checks run in config order,
    and each context member is owned by the last check that reads it, then
    dropped, so a field is held only while some check still needs it, and
    only its owner overwrites it (ScenarioContext.take). A check's
    ValueError is raised again as "check: reason"."""
    ctx = ScenarioContext(scn)
    names = scn.options["checks"]
    last_reader = {member: i for i, name in enumerate(names) for member in CHECKS[name].reads(scn.options)}
    checks: dict[str, dict] = {}
    tables: Tables = {}
    for i, name in enumerate(names):
        check = CHECKS[name]
        ctx.owned = {member for member, j in last_reader.items() if j == i}
        try:
            checks[name], check_tables = check.run(ctx, **{key: scn.options[key] for key in check.keys})
        except ValueError as exc:
            raise ValueError(f"{name}: {exc}") from exc
        tables.update(check_tables)
        for member in ctx.owned:
            ctx.drop(member)
    return {"name": scn.name, "passed": _all_passed(checks.values()), "checks": checks}, tables


# ---------------------------------------------------------------------------
# output plumbing


def _atomic_write(path: Path, write: Callable[[TextIO], object]) -> None:
    """Call write on a temporary file beside path, renamed over path; removed if either fails."""
    tmp = path.with_name(path.name + ".tmp")
    fh = open(tmp, "w", encoding="utf-8", newline="\n")
    try:
        with fh:
            write(fh)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _write_json(path: Path, obj: dict) -> None:
    _atomic_write(path, lambda fh: fh.write(json.dumps(obj, indent=2) + "\n"))


def _cell(value: object) -> str:
    """A CSV cell: floats with 17 significant digits, None empty."""
    if value is None:
        return ""
    return "%.17g" % value if isinstance(value, float) else str(value)


def _write_csv(path: Path, header: list[str], rows: list[list]) -> None:
    cells = ([_cell(v) for v in row] for row in [header, *rows])
    _atomic_write(path, lambda fh: csv.writer(fh, lineterminator="\n").writerows(cells))


def export_tfarray(v: TFArray, path: str | Path) -> None:
    """CSV dump: header x,xi,re,im,abs; row-major; 17 significant digits;
    abs is hypot(re, im). The node text is formatted once per node, and each
    x row is written by one % call on a format string that holds it."""
    tails = ["," + "%.17g" % xi + ",%.17g,%.17g,%.17g\n" for xi in v.grid.xi_nodes().tolist()]
    block = np.empty((v.grid.xi_count, 3))

    def write(fh: TextIO) -> None:
        fh.write("x,xi,re,im,abs\n")
        for x, row in zip(v.grid.x_nodes().tolist(), v.values):
            xt = "%.17g" % x
            block[:, 0], block[:, 1] = row.real, row.imag
            np.hypot(row.real, row.imag, out=block[:, 2])
            fh.write((xt + xt.join(tails)) % tuple(block.ravel().tolist()))

    try:
        _atomic_write(Path(path), write)
    except OSError as exc:
        raise OSError(f"cannot write {path}: {exc}") from exc


def _data_lines(fh: TextIO) -> Iterator[str]:
    """The lines of fh that np.loadtxt reads as rows: those left with text
    once a "#" comment is cut off."""
    return (line for line in fh if not (line.isspace() or "#" in line and not line.partition("#")[0].strip()))


def _columns(path: str | Path, usecols: tuple[int, int]) -> np.ndarray:
    """Two columns of the data rows of an export_tfarray file, as float64
    pairs, one row per data row; ValueError names the file.

    np.loadtxt reads the file from its path, past the header, in its own
    reader, which skips empty and "#" comment lines. It refuses a line of
    whitespace or one indented before its "#", which _data_lines drops, so
    a file it refuses is read again through _data_lines, which gives the
    rows or the error. A file with no data row, of which np.loadtxt would
    warn, gives an empty table."""
    with open(path, "r", encoding="utf-8") as fh:
        fh.readline()  # the header
        if next(_data_lines(fh), None) is None:
            return np.empty((0, 2))
        try:
            return np.loadtxt(path, delimiter=",", skiprows=1, usecols=usecols, ndmin=2, encoding="utf-8")
        except ValueError:
            fh.seek(0)
            fh.readline()
        try:
            return np.loadtxt(_data_lines(fh), delimiter=",", usecols=usecols, ndmin=2)
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from exc


def import_tfarray(path: str | Path) -> TFArray:
    """Rebuild a TFArray from an export_tfarray file (bit-exact round trip,
    grid included).

    The rows must list a full grid in row-major order: a run of rows per x
    node, each run over the xi nodes of the first, at least two nodes on
    each axis, and the nodes those of a TFGrid; otherwise ValueError names
    the file. Blank and "#" comment lines are skipped, as np.loadtxt does.
    The file is read in two np.loadtxt passes: the x and xi columns, which
    give and check the grid, then the re and im columns, whose float64
    pairs are viewed as the complex array that the TFArray takes over
    (re + 1j * im would turn some -0 parts into +0)."""
    nodes = _columns(path, (0, 1))
    rows = len(nodes)
    later = nodes[:, 0] != nodes[:1, 0]  # the rows whose x is not the first row's
    xi_count = int(later.argmax()) if later.any() else rows
    x_count = rows // xi_count if xi_count else 0
    if min(x_count, xi_count) < 2:
        raise ValueError(f"{path}: need at least two x and two xi nodes, got {x_count} x {xi_count}")
    if rows != x_count * xi_count:
        raise ValueError(f"{path}: {rows} rows are not a full grid of x rows of {xi_count} xi nodes each")
    nodes = nodes.reshape(x_count, xi_count, 2)
    x, xi = nodes[:, 0, 0].copy(), nodes[0, :, 1].copy()
    if not (np.all(nodes[:, :, 0] == x[:, None]) and np.all(nodes[:, :, 1] == xi)):
        raise ValueError(f"{path}: x rows 0-{x_count - 1} do not each hold one x over the first's xi nodes")
    del nodes, later  # so that the values' pass holds about one field
    values = _columns(path, (2, 3)).view(np.complex128).reshape(x_count, xi_count)
    try:
        # a grid's nodes count/2 - 1 and count/2 are -step and 0, exactly; the
        # difference of two other nodes may miss a step that is not dyadic
        steps = (float(nodes[nodes.size // 2] - nodes[nodes.size // 2 - 1]) for nodes in (x, xi))
        grid = TFGrid(*steps, x_count=x_count, xi_count=xi_count)
        if not (np.array_equal(x, grid.x_nodes()) and np.array_equal(xi, grid.xi_nodes())):
            raise ValueError(f"the nodes are not those of {grid}, (j - count/2) * step")
        return TFArray._fresh(grid, values)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc


# ---------------------------------------------------------------------------
# subcommands


def _resolve_config(arg: str) -> Path:
    path = Path(arg)
    if path.exists():
        return path
    if arg == "paper-suite":
        from importlib.resources import files

        return Path(str(files("tfu").joinpath("configs/paper_suite.ini")))
    raise ConfigError(f"config not found: {arg}")


def _usable_cpus() -> int:
    """The CPUs this process may run on: its affinity set where the platform
    has one, else all of them."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def cmd_run(args: argparse.Namespace) -> int:
    config = _resolve_config(args.config)
    scenarios = load_config(config)
    if args.scenario is not None:
        scenarios = [s for s in scenarios if s.name == args.scenario]
        if not scenarios:
            raise ConfigError(f"scenario {args.scenario!r} not found in {config}")
    threads = os.environ.get("TFU_THREADS", "")
    try:
        workers = min(positive_int(threads) if threads else min(4, _usable_cpus()), len(scenarios))
    except ValueError as exc:
        raise ConfigError(f"TFU_THREADS: {exc}") from exc
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)

    errors: list[str] = []
    reports: dict[str, dict] = {}

    def work(scn: Scenario) -> tuple[str, tuple[dict, Tables] | None, str | None]:
        try:
            return scn.name, run_scenario(scn), None
        except ValueError as exc:
            return scn.name, None, str(exc)
        except Exception as exc:  # a fault in one scenario must not lose the others' reports
            return scn.name, None, f"{type(exc).__name__}: {exc}"

    with ThreadPoolExecutor(max_workers=workers) as pool:
        outcomes = list(pool.map(work, scenarios))

    for name, result, error in outcomes:
        if error is not None:
            errors.append(f"[{name}] {error}")
            continue
        report, tables = result
        reports[name] = report
        if not args.no_timestamp:
            report = report | {"timestamp": datetime.now(timezone.utc).isoformat()}
        try:  # an unwritable report must not lose the others
            _write_json(out_dir / f"{name}.json", report)
            for suffix, (header, rows) in tables.items():
                _write_csv(out_dir / f"{name}__{suffix}.csv", header, rows)
        except OSError as exc:
            errors.append(f"[{name}] cannot write its reports: {exc}")

    summary = {
        "config": config.name,
        "scenarios": [{"name": name, "passed": r["passed"]} for name, r in reports.items()],
        "errors": errors,
        "passed": not errors and _all_passed(reports.values()),
    }
    if not args.no_timestamp:
        summary["timestamp"] = datetime.now(timezone.utc).isoformat()
    _write_json(out_dir / "summary.json", summary)

    for name, report in reports.items():
        print(f"{'pass' if report['passed'] else 'FAIL'}  {name}")
    for err in errors:
        print(f"error: {err}", file=sys.stderr)
    if errors:
        return 1
    return 0 if summary["passed"] else 2


def cmd_export_stft(args: argparse.Namespace) -> int:
    layout = SignalLayout(_rule("--count", signal_count, args.count), _rule("--step", signal_step, args.step))
    f, g = _rule("--f", function_spec, args.f), _rule("--g", function_spec, args.g)
    signals = _sample_signals([("--f", f), ("--g", g)], layout)
    v = compute_stft(signals[f.text], signals[g.text], TFGrid.from_layout(layout))
    export_tfarray(v, args.out)
    print(f"wrote {args.out}")
    return 0


def cmd_bounds(args: argparse.Namespace) -> int:
    mode = SupportMode(_VARIANTS[args.mode], p=args.p, epsilon=args.eps)
    print(repr(lower_bound(mode, d=args.d)))
    return 0


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # exit 1 on usage errors, not 2
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(1)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="tfu", description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run scenarios from a config file")
    p_run.add_argument("config", help="config path, or the bundled name 'paper-suite'")
    p_run.add_argument("--out", required=True, help="output directory for reports")
    p_run.add_argument("--no-timestamp", action="store_true", help="omit timestamps from reports")
    p_run.add_argument("--scenario", default=None, help="run a single scenario by name")
    p_run.set_defaults(func=cmd_run)

    p_exp = sub.add_parser("export-stft", help="export an STFT field as CSV")
    p_exp.add_argument("--f", required=True, help="signal function spec")
    p_exp.add_argument("--g", required=True, help="window function spec")
    p_exp.add_argument("--out", required=True, help="output CSV path")
    p_exp.add_argument("--count", default=DEFAULT_LAYOUT.count)
    p_exp.add_argument("--step", default=DEFAULT_LAYOUT.step)
    p_exp.set_defaults(func=cmd_export_stft)

    p_bnd = sub.add_parser("bounds", help="evaluate a closed-form support bound")
    p_bnd.add_argument("--mode", required=True, choices=sorted(_VARIANTS))
    p_bnd.add_argument("--p", type=finite_float, required=True)
    p_bnd.add_argument("--eps", type=finite_float, default=0.0)
    p_bnd.add_argument("--d", type=positive_int, default=1)
    p_bnd.set_defaults(func=cmd_bounds)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
