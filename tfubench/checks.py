"""Correctness checks on the outputs of `tfu run` and `tfu export-stft`.

Every check is against a property the method must have, or against a value
this file computes itself; none compares with a stored copy of an earlier
output. A check raises CheckError on the first violation.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from pathlib import Path

import numpy as np

#: Lieb ratios: within this of 1 at p = 2, and on the correct side of 1
#: otherwise (the program's default direction tolerance).
LIEB_TOL = 1e-6
#: Relative tolerance on a support lower bound recomputed here.
BOUND_RTOL = 1e-12
#: Upper limits on the defects of checks whose exact value is 0.
DEFECT_LIMITS = {"isometry": 1e-8, "closed_form": 1e-8, "identity": 1e-6, "rotation": 1e-6, "decay": 1e-2}
#: Exported unit Gaussian pair: |V| against exp(-pi (x^2 + xi^2) / 2).
GAUSSIAN_ABS_TOL = 1e-12
#: Plane energy of an export of two unit-norm functions against 1.
ENERGY_TOL = 1e-10
#: The abs column against hypot(re, im), relative.
ABS_RTOL = 1e-15


class CheckError(Exception):
    pass


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckError(message)


def read_csv(path: Path) -> list[dict[str, str]]:
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(fh))


def check_lieb(rows: list[dict[str, str]], where: str) -> None:
    """The energy identity at p = 2 and Lieb's inequality on both sides of it."""
    for row in rows:
        p, ratio = float(row["p"]), float(row["ratio"])
        if p == 2:
            _require(abs(ratio - 1) <= LIEB_TOL, f"{where}: Lieb ratio {ratio!r} at p = 2 is not 1")
        elif p > 2:
            _require(ratio <= 1 + LIEB_TOL, f"{where}: Lieb ratio {ratio!r} above 1 at p = {p:g}")
        else:
            _require(ratio >= 1 - LIEB_TOL, f"{where}: Lieb ratio {ratio!r} below 1 at p = {p:g}")


def check_growth(rows: list[dict[str, str]], where: str) -> None:
    """Truncated weighted masses do not decrease as the radius grows.

    Rows of one scan are consecutive with increasing R; a new scan starts
    where the scan key changes or R does not increase.
    """
    prev = None
    for row in rows:
        key = (row["family"], row["p"], row["N"], row["field"])
        r, mass = float(row["R"]), float(row["mass"])
        _require(math.isfinite(mass) and mass >= 0, f"{where}: mass {row['mass']} at R = {r:g}")
        if prev is not None and prev[0] == key and r > prev[1]:
            _require(mass >= prev[2], f"{where}: {key[0]} mass falls from {prev[2]!r} to {mass!r} at R = {r:g}")
        prev = (key, r, mass)


def support_lower_bound(variant: str, p: float, eps: float) -> float:
    """Closed-form essential-support area bound in dimension 1."""
    if variant == "l1_fraction":
        return (1 - eps) ** (p / (p - 1)) * (p / 2) ** (1 / (p - 1))
    if variant == "lp_vs_l1p":
        return 2 ** (2 * p / (2 - p)) * (1 - eps) ** (2 / (2 - p))
    if variant == "lp_vs_energy":
        return 1 - eps
    raise CheckError(f"unknown support variant {variant!r}")


def check_support(rows: list[dict[str, str]], where: str) -> None:
    """Each bound equals the closed form; a satisfiable row's area meets it."""
    for row in rows:
        bound = float(row["lower_bound"])
        expected = support_lower_bound(row["variant"], float(row["p"]), float(row["epsilon"]))
        label = f"{where}: {row['variant']} p={row['p']} eps={row['epsilon']}"
        _require(math.isclose(bound, expected, rel_tol=BOUND_RTOL), f"{label}: bound {bound!r} != {expected!r}")
        if row["satisfiable"] == "True":
            area = float(row["measured_area"])
            _require(area >= bound, f"{label}: area {area!r} below bound {bound!r}")


def _defects(name: str, entry: dict) -> list[float]:
    if name == "identity":
        return [t["defect"] for t in entry["tuples"]]
    if name == "rotation":
        return [s["defect"] for s in entry["shifts"]]
    if name == "closed_form":
        return [entry["max_abs_deviation"]]
    if name == "decay":  # the Hardy pair a * (1/a) = 1
        return [abs(entry["product"] - 1)]
    return [entry["defect"]]


def check_report(report: dict, where: str) -> None:
    """The scenario passed, and every identity defect is near its exact 0."""
    _require(report.get("passed") is True, f"{where}: scenario did not pass")
    for name, entry in report["checks"].items():
        _require(entry.get("passed") is True, f"{where}: check {name} did not pass")
        if name in DEFECT_LIMITS:
            worst = max(_defects(name, entry))
            _require(worst <= DEFECT_LIMITS[name], f"{where}: {name} defect {worst!r} over {DEFECT_LIMITS[name]:g}")


_TABLE_CHECKS = {"lieb": check_lieb, "growth": check_growth, "support": check_support}


def check_run(out: Path, scenarios: list[str], known_error: str | None = None) -> int:
    """Check a `tfu run` output directory; return the number of failed scenarios.

    The only failure accepted is known_error, an exact summary error line.
    """
    summary = json.loads((out / "summary.json").read_text(encoding="utf-8"))
    for error in summary["errors"]:
        _require(error == known_error, f"unexpected scenario error: {error}")
    failed = {error[1:].split("]", 1)[0] for error in summary["errors"]}
    reported = [s["name"] for s in summary["scenarios"]]
    expected = [name for name in scenarios if name not in failed]
    _require(reported == expected, f"summary lists {reported}, expected {expected}")
    for name in reported:
        check_report(json.loads((out / f"{name}.json").read_text(encoding="utf-8")), name)
        for suffix, check in _TABLE_CHECKS.items():
            table = out / f"{name}__{suffix}.csv"
            if table.exists():
                check(read_csv(table), table.name)
    return len(failed)


def check_export(path: Path, expected, unit_gaussian_pair: bool) -> None:
    """An export re-imports bit-exactly to the field it was written from.

    expected is that field as a TFArray. Its abs column is |re + i im|, and
    its plane energy is 1, as both functions have unit norm. For the unit
    Gaussian pair, |V| is also checked against exp(-pi (x^2 + xi^2) / 2).
    """
    from tfu import cli  # importable once run.py has put src/ on sys.path

    try:
        back = cli.import_tfarray(path)
        absolute = np.loadtxt(path, delimiter=",", skiprows=1, usecols=(4,))
    except ValueError as exc:
        raise CheckError(f"{path.name}: cannot re-import: {exc}") from exc
    grid = expected.grid
    _require(back.grid.shape == grid.shape, f"{path.name}: grid shape {back.grid.shape} != {grid.shape}")
    _require(np.array_equal(back.values, expected.values), f"{path.name}: values do not re-import bit-exactly")
    _require(
        np.array_equal(back.grid.x_nodes(), grid.x_nodes()) and np.array_equal(back.grid.xi_nodes(), grid.xi_nodes()),
        f"{path.name}: grid nodes do not re-import bit-exactly",
    )
    values = back.values.ravel()
    modulus = np.hypot(values.real, values.imag)
    _require(
        np.allclose(absolute, modulus, rtol=ABS_RTOL, atol=0), f"{path.name}: abs column is not |re + i im|"
    )
    energy = math.fsum((absolute * absolute).tolist()) * grid.cell_measure
    _require(abs(energy - 1) <= ENERGY_TOL, f"{path.name}: plane energy {energy!r} is not 1")
    if unit_gaussian_pair:
        x, xi = (axis.ravel() for axis in grid.meshgrid())  # row-major, as the rows are written
        closed = np.exp(-np.pi * (x * x + xi * xi) / 2)
        worst = float(np.max(np.abs(absolute - closed)))
        _require(worst <= GAUSSIAN_ABS_TOL, f"{path.name}: |V| deviates {worst!r} from the closed form")


def digest(out: Path) -> str:
    """sha256 over the names and bytes of every file in a directory."""
    h = hashlib.sha256()
    for path in sorted(out.iterdir()):
        h.update(path.name.encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()
