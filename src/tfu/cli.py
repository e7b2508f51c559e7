"""Command-line front end.

Subcommands:

    tfu run <config> --out <dir> [--no-timestamp] [--scenario <name>]
    tfu export-stft --f <spec> --g <spec> --out <file> [--count N] [--step S]
    tfu bounds --mode <variant> --p <p> --eps <e> [--d <d>]

Configs are INI files: one section per scenario, flat keys (see the bundled
"paper-suite" config). SCENARIO_KEYS and the check registry CHECKS declare
each key once, with its parser (tfu.specs) and default; load_config parses
every value before any scenario runs, and a bad value aborts naming its
"[section] key". A check is a function of a ScenarioContext and of its own
keys; the context computes what the checks of one scenario share on first
use and is released when the scenario's run returns.

`run` writes one JSON report per scenario plus CSV tables for sweeps, and
exits 0 only if every enabled assertion passed (2 on assertion failure, 1
on configuration or runtime errors; the other scenarios' reports and
summary.json are still written). Scenario runs are independent and may
execute concurrently; TFU_THREADS caps the worker count. Report files are
written atomically, and with --no-timestamp two runs of the same config are
byte-identical.
"""

from __future__ import annotations

import argparse
import csv
import itertools
import json
import math
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path
from typing import Callable, Iterable, NamedTuple

import numpy as np

from tfu.core import DEFAULT_LAYOUT, SignalLayout, TFArray, TFGrid, discrete_fourier
from tfu.identity import build_auxiliary, fundamental_identity_defect, rotation_invariance_defect
from tfu.reference import fourier_closed_form, gaussian_stft_field, sample, unit_gaussian
from tfu.specs import (
    _VARIANTS,
    ConfigError,
    FunctionSpec,
    each,
    finite_float,
    finite_floats,
    function_spec,
    identity_tuple,
    parse_function_spec,
    parse_support_mode,
    parse_weight_scan,
    positive_int,
    shift_pair,
    signal_count,
    split_list,
)
from tfu.stft import compute_stft, energy_defect
from tfu.support import SupportMode, greedy_essential_support, lieb_ratio, lower_bound, sorted_cell_masses
from tfu.weights import DIVERGENCE_RADII, decay_fit, growth_scan, pair_field

#: Most subsets the greedy oracle may enumerate, oracle_fields times the sum
#: over k <= oracle_max_subset of C(oracle_size^2, k): about 5 s at its rate
#: of roughly 0.45 us a subset. The bundled suite enumerates 874,880.
MAX_ORACLE_SUBSETS = 10**7


# ---------------------------------------------------------------------------
# scenarios and the per-scenario context


@dataclass
class Scenario:
    name: str
    layout: SignalLayout
    checks: tuple[str, ...]
    options: dict[str, object]  # every key -> its parsed value or default


class _cached:
    """functools.cached_property without its class-wide lock (Python < 3.12),
    which would make scenarios on parallel threads wait for each other."""

    def __init__(self, compute: Callable) -> None:
        self.compute = compute

    def __get__(self, ctx: object, owner: type | None = None):
        if ctx is None:
            return self
        value = ctx.__dict__[self.compute.__name__] = self.compute(ctx)
        return value


class ScenarioContext:
    """What the checks of one scenario share. The samples are taken at once;
    the fields and norms are computed on first use."""

    def __init__(self, scn: Scenario) -> None:
        self.name, self.layout = scn.name, scn.layout
        self.f_spec: FunctionSpec = scn.options["f"]
        self.g_spec: FunctionSpec = scn.options["g"]
        self.f = sample(self.f_spec.fn, self.layout)
        self.g = sample(self.g_spec.fn, self.layout)
        self.grid = TFGrid.from_layout(self.layout)
        self.unit_pair = self.f_spec.fn == self.g_spec.fn == unit_gaussian()

    @_cached
    def stft(self) -> TFArray:
        """V_g f on the scenario's grid."""
        return compute_stft(self.f, self.g, self.grid)

    @_cached
    def norms(self) -> tuple[float, float]:
        """|f|_2 and |g|_2."""
        return self.f.l2_norm(), self.g.l2_norm()

    @_cached
    def closed(self) -> TFArray:
        """The exact Gaussian-pair STFT, which is V_g f only when unit_pair holds."""
        return gaussian_stft_field(self.grid)

    @_cached
    def pair(self) -> TFArray:
        """f(x) fhat(xi) with the numeric transform of f."""
        return pair_field(self.f)

    @_cached
    def pair_exact(self) -> TFArray:
        """f(x) fhat(xi) with closed-form samples of the transform of f."""
        return pair_field(self.f, sample(fourier_closed_form(self.f_spec.fn), self.layout.dual()))


# ---------------------------------------------------------------------------
# checks: each returns its report entry and its CSV tables

#: suffix -> (header, rows); _write_csv formats the cells
Tables = dict[str, tuple[list[str], list[list]]]

_SUPPORT_HEADER = "variant p epsilon satisfiable cells measured_area lower_bound bound_holds note".split()


def _all_passed(entries: Iterable[dict]) -> bool:
    return all(e["passed"] for e in entries)


def _isometry(ctx: ScenarioContext, isometry_tol: float) -> tuple[dict, Tables]:
    defect = energy_defect(ctx.stft, *ctx.norms)
    return {"defect": defect, "tolerance": isometry_tol, "passed": defect < isometry_tol}, {}


def _closed_form(ctx: ScenarioContext, closed_form_tol: float) -> tuple[dict, Tables]:
    if not ctx.unit_pair:
        raise ConfigError(f"closed_form check in [{ctx.name}] requires the unit gaussian pair")
    dev = float(np.max(np.abs(ctx.stft.values - ctx.closed.values)))
    return {"max_abs_deviation": dev, "tolerance": closed_form_tol, "passed": dev < closed_form_tol}, {}


def _identity(ctx: ScenarioContext, identity_tuples, identity_tol: float) -> tuple[dict, Tables]:
    results = []
    for specs in identity_tuples or ((ctx.f_spec, ctx.f_spec, ctx.g_spec, ctx.g_spec),):
        defect = fundamental_identity_defect(*(sample(s.fn, ctx.layout) for s in specs), ctx.grid)
        functions = [s.text for s in specs]
        results.append({"functions": functions, "defect": defect, "passed": defect < identity_tol})
    return {"tolerance": identity_tol, "tuples": results, "passed": _all_passed(results)}, {}


def _rotation(ctx: ScenarioContext, rotation_z, rotation_tol: float) -> tuple[dict, Tables]:
    results = []
    for z, zeta in rotation_z:
        defect = rotation_invariance_defect(build_auxiliary(ctx.f, ctx.g, ctx.grid, z, zeta))
        results.append({"z": z, "zeta": zeta, "defect": defect, "passed": defect < rotation_tol})
    return {"tolerance": rotation_tol, "shifts": results, "passed": _all_passed(results)}, {}


def _lieb(ctx: ScenarioContext, lieb_p, lieb_dir_tol: float, lieb_equality_tol) -> tuple[dict, Tables]:
    entries = []
    for p in lieb_p:
        ratio = lieb_ratio(ctx.stft, p, *ctx.norms)
        if p > 2:
            ok = ratio <= 1 + lieb_dir_tol
        elif p < 2:
            ok = ratio >= 1 - lieb_dir_tol
        else:
            ok = abs(ratio - 1) <= lieb_dir_tol
        if lieb_equality_tol is not None:
            ok = ok and abs(ratio - 1) <= lieb_equality_tol
        entries.append({"p": p, "ratio": ratio, "passed": ok})
    entry = {"direction_tolerance": lieb_dir_tol, "ratios": entries, "passed": _all_passed(entries)}
    return entry, {"lieb": (["p", "ratio"], [[e["p"], e["ratio"]] for e in entries])}


def _scan_target(ctx: ScenarioContext, source: str) -> TFArray:
    if source == "closed" and not ctx.unit_pair:
        raise ConfigError(f"field=closed in [{ctx.name}] requires the unit gaussian pair")
    return getattr(ctx, source)


def _weights(ctx: ScenarioContext, weights, radii) -> tuple[dict, Tables]:
    if not weights:
        raise ConfigError(f"weights check in [{ctx.name}] needs a 'weights' key")
    entries, rows = [], []
    for ws in weights:
        report = growth_scan(_scan_target(ctx, ws.source), ws.weight, ws.radii or radii)
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
    if not support:
        raise ConfigError(f"support check in [{ctx.name}] needs a 'support' key")
    entries, rows = [], []
    for mode, expect in support:
        rep = greedy_essential_support(ctx.stft, mode, *ctx.norms)
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


def _decay(ctx: ScenarioContext, decay_tail: float, decay_product_tol: float) -> tuple[dict, Tables]:
    a_time = decay_fit(ctx.f, decay_tail)
    a_freq = decay_fit(discrete_fourier(ctx.f), decay_tail)
    product = a_time * a_freq
    entry = {
        "fit_time": a_time,
        "fit_frequency": a_freq,
        "product": product,
        "tolerance": decay_product_tol,
        "passed": abs(product - 1.0) <= decay_product_tol,
    }
    return entry, {}


def _greedy_oracle(
    ctx: ScenarioContext, oracle_fields: int, oracle_size: int, oracle_max_subset: int, oracle_seed: int
) -> tuple[dict, Tables]:
    ok = _greedy_matches_bruteforce(oracle_fields, oracle_size, oracle_max_subset, oracle_seed)
    entry = {
        "fields": oracle_fields,
        "size": oracle_size,
        "max_subset": oracle_max_subset,
        "seed": oracle_seed,
        "passed": ok,
    }
    return entry, {}


def _limit_oracle_subsets(oracle_fields: int, oracle_size: int, oracle_max_subset: int, **_) -> None:
    cells = oracle_size**2
    total = 0
    for k in range(1, min(oracle_max_subset, cells) + 1):
        total += oracle_fields * math.comb(cells, k)
        if total > MAX_ORACLE_SUBSETS:
            raise ConfigError(
                "oracle_fields, oracle_size, oracle_max_subset: the greedy oracle would "
                f"enumerate more than {MAX_ORACLE_SUBSETS} subsets"
            )


# ---------------------------------------------------------------------------
# the registry


class Key(NamedTuple):
    parse: Callable[[str], object]
    default: object  # already parsed


class Check(NamedTuple):
    """A check's own keys and its run(ctx, **values) -> (entry, tables), where
    values maps each key to its parsed value. validate(**values), when given,
    rejects values whose combination is out of bounds, at load time."""

    keys: dict[str, Key]
    run: Callable[..., tuple[dict, Tables]]
    validate: Callable[..., None] | None = None

    def values_in(self, opts: dict[str, object]) -> dict[str, object]:
        return {key: opts[key] for key in self.keys}


CHECKS: dict[str, Check] = {
    "isometry": Check({"isometry_tol": Key(finite_float, 1e-8)}, _isometry),
    "closed_form": Check({"closed_form_tol": Key(finite_float, 1e-8)}, _closed_form),
    "identity": Check(
        {"identity_tuples": Key(each(identity_tuple), ()), "identity_tol": Key(finite_float, 1e-6)},
        _identity,
    ),
    "rotation": Check(
        {"rotation_z": Key(each(shift_pair), ((0.0, 0.0),)), "rotation_tol": Key(finite_float, 1e-6)},
        _rotation,
    ),
    "lieb": Check(
        {
            "lieb_p": Key(finite_floats, (2.0,)),
            "lieb_dir_tol": Key(finite_float, 1e-6),
            "lieb_equality_tol": Key(finite_float, None),
        },
        _lieb,
    ),
    "weights": Check(
        {"weights": Key(each(parse_weight_scan), ()), "radii": Key(finite_floats, DIVERGENCE_RADII)},
        _weights,
    ),
    "support": Check({"support": Key(each(parse_support_mode), ())}, _support),
    "decay": Check(
        {"decay_tail": Key(finite_float, 0.25), "decay_product_tol": Key(finite_float, 1e-2)}, _decay
    ),
    "greedy_oracle": Check(
        {
            "oracle_fields": Key(positive_int, 20),
            "oracle_size": Key(positive_int, 8),
            "oracle_max_subset": Key(positive_int, 3),
            "oracle_seed": Key(int, 20260809),
        },
        _greedy_oracle,
        _limit_oracle_subsets,
    ),
}


def _check_names(raw: str) -> tuple[str, ...]:
    names = tuple(split_list(raw))
    for name in names:
        if name not in CHECKS:
            raise ConfigError(f"unknown check '{name}'")
    return names


_UNIT_GAUSSIAN = function_spec("gaussian:a=1")

#: Keys every scenario has, whatever its checks.
SCENARIO_KEYS: dict[str, Key] = {
    "f": Key(function_spec, _UNIT_GAUSSIAN),
    "g": Key(function_spec, _UNIT_GAUSSIAN),
    "checks": Key(_check_names, ()),
    "count": Key(signal_count, DEFAULT_LAYOUT.count),
    "step": Key(finite_float, DEFAULT_LAYOUT.step),
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
        opts = {name: key.default for name, key in _KEYS.items()}
        for name, raw in parser.items(section):
            if name not in _KEYS:
                raise ConfigError(f"unknown key '{name}' in [{section}]")
            try:
                opts[name] = _KEYS[name].parse(raw)
            except ValueError as exc:
                raise ConfigError(f"[{section}] {name}: {exc}") from exc
        if not opts["checks"]:
            raise ConfigError(f"scenario [{section}] enables no checks")
        try:
            for check in (CHECKS[name] for name in opts["checks"]):
                if check.validate is not None:
                    check.validate(**check.values_in(opts))
            layout = SignalLayout(count=opts["count"], step=opts["step"])
        except ValueError as exc:
            raise ConfigError(f"[{section}] {exc}") from exc
        scenarios.append(Scenario(section, layout, opts["checks"], opts))
    if not scenarios:
        raise ConfigError(f"config {path} defines no scenarios")
    return scenarios


def run_scenario(scn: Scenario) -> tuple[dict, Tables]:
    """The scenario's report and CSV tables."""
    ctx = ScenarioContext(scn)
    checks: dict[str, dict] = {}
    tables: Tables = {}
    for name in scn.checks:
        check = CHECKS[name]
        checks[name], check_tables = check.run(ctx, **check.values_in(scn.options))
        tables.update(check_tables)
    return {"name": scn.name, "passed": _all_passed(checks.values()), "checks": checks}, tables


def _greedy_matches_bruteforce(n_fields: int, size: int, kmax: int, seed: int) -> bool:
    """Greedy prefix mass vs exhaustive max over subsets, exact comparison.

    Both sides sum cell values in the same canonical order (descending
    value, row-major tie-break), so equality is bitwise.
    """
    rng = np.random.default_rng(seed)
    grid = TFGrid(x_step=1.0, xi_step=1.0, x_count=size, xi_count=size)
    for _ in range(n_fields):
        arr = TFArray(grid=grid, values=rng.random((size, size)).astype(complex))
        _, masses = sorted_cell_masses(arr, p=1.0)
        vals = list(masses)
        for k in range(1, kmax + 1):
            greedy = 0.0
            for x in vals[:k]:
                greedy += x
            best = -math.inf
            for combo in itertools.combinations(range(len(vals)), k):
                s = 0.0
                for i in combo:  # combo is increasing, i.e. canonical order
                    s += vals[i]
                if s > best:
                    best = s
            if best != greedy:
                return False
    return True


# ---------------------------------------------------------------------------
# output plumbing


def _atomic_write(path: Path, data: str) -> None:
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(data)
    os.replace(tmp, path)


def _write_json(path: Path, obj: dict) -> None:
    _atomic_write(path, json.dumps(obj, indent=2) + "\n")


def _cell(value: object) -> str:
    """A CSV cell: floats with 17 significant digits, None empty."""
    if value is None:
        return ""
    return "%.17g" % value if isinstance(value, float) else str(value)


def _write_csv(path: Path, header: list[str], rows: list[list]) -> None:
    import io

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows([_cell(v) for v in row] for row in rows)
    _atomic_write(path, buf.getvalue())


def export_tfarray(v: TFArray, path: str | Path) -> None:
    """CSV dump: header x,xi,re,im,abs; row-major; 17 significant digits."""
    x = v.grid.x_nodes()
    xi = v.grid.xi_nodes()
    lines = ["x,xi,re,im,abs"]
    vals = v.values
    for j in range(v.grid.x_count):
        for k in range(v.grid.xi_count):
            z = vals[j, k]
            lines.append(
                f"{x[j]:.17g},{xi[k]:.17g},{z.real:.17g},{z.imag:.17g},{abs(z):.17g}"
            )
    try:
        _atomic_write(Path(path), "\n".join(lines) + "\n")
    except OSError as exc:
        raise OSError(f"cannot write {path}: {exc}") from exc


def import_tfarray(path: str | Path) -> TFArray:
    """Rebuild a TFArray from an export_tfarray file (bit-exact round trip)."""
    data = np.loadtxt(path, delimiter=",", skiprows=1, usecols=(0, 1, 2, 3))
    x = np.unique(data[:, 0])
    xi = np.unique(data[:, 1])
    x_step = float(x[1] - x[0])
    xi_step = float(xi[1] - xi[0])
    grid = TFGrid(x_step=x_step, xi_step=xi_step, x_count=x.size, xi_count=xi.size)
    values = (data[:, 2] + 1j * data[:, 3]).reshape(x.size, xi.size)
    return TFArray(grid=grid, values=values)


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


def cmd_run(args: argparse.Namespace) -> int:
    config = _resolve_config(args.config)
    scenarios = load_config(config)
    if args.scenario is not None:
        scenarios = [s for s in scenarios if s.name == args.scenario]
        if not scenarios:
            raise ConfigError(f"scenario {args.scenario!r} not found in {config}")
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)

    workers = int(os.environ.get("TFU_THREADS", "0")) or min(4, len(scenarios))
    workers = max(1, min(workers, len(scenarios)))
    errors: list[str] = []
    reports: dict[str, dict] = {}

    def work(scn: Scenario) -> tuple[str, tuple[dict, Tables] | None, str | None]:
        try:
            return scn.name, run_scenario(scn), None
        except (ConfigError, ValueError) as exc:
            return scn.name, None, str(exc)
        except Exception as exc:  # a fault in one scenario must not lose the others' reports
            return scn.name, None, f"{type(exc).__name__}: {exc}"

    if workers == 1:
        outcomes = [work(s) for s in scenarios]
    else:
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
        _write_json(out_dir / f"{name}.json", report)
        for suffix, (header, rows) in tables.items():
            _write_csv(out_dir / f"{name}__{suffix}.csv", header, rows)

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
    layout = SignalLayout(count=signal_count(args.count), step=args.step)
    f = sample(parse_function_spec(args.f), layout)
    g = sample(parse_function_spec(args.g), layout)
    v = compute_stft(f, g, TFGrid.from_layout(layout))
    export_tfarray(v, args.out)
    print(f"wrote {args.out}")
    return 0


def cmd_bounds(args: argparse.Namespace) -> int:
    if args.mode not in _VARIANTS:
        raise ConfigError(
            f"unknown support variant {args.mode!r} (choose from {sorted(_VARIANTS)})"
        )
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
    p_exp.add_argument("--count", type=int, default=DEFAULT_LAYOUT.count)
    p_exp.add_argument("--step", type=float, default=DEFAULT_LAYOUT.step)
    p_exp.set_defaults(func=cmd_export_stft)

    p_bnd = sub.add_parser("bounds", help="evaluate a closed-form support bound")
    p_bnd.add_argument("--mode", required=True, help="|".join(sorted(_VARIANTS)))
    p_bnd.add_argument("--p", type=float, required=True)
    p_bnd.add_argument("--eps", type=float, default=0.0)
    p_bnd.add_argument("--d", type=int, default=1)
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
