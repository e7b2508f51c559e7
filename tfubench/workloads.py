"""The three benchmark workloads and the seeded generation of their inputs.

A workload is a list of `tfu` command lines. Every seed gives the same
commands with different parameters, so the work per run does not depend on
the seed. Parameters are drawn from menus whose every entry passes its check
at the layout it runs on (see README.md); continuous draws are only used
where a theorem guarantees the check for every value (Lieb exponents,
rotation shifts).
"""

from __future__ import annotations

import configparser
import random
from dataclasses import dataclass
from pathlib import Path

DEFAULT_SEED = 20201004

#: Self-dual large layout: 1024 samples on [-16, 16), count * step^2 = 1.
LARGE_LAYOUT = "count = 1024\nstep = 0.03125\n"

#: The scenario that fails on every seed: exp(2 pi 128) overflows in
#: WeightSpec.evaluate before it is multiplied by |V|^2 ~ e^-402, although
#: the true integrand at the corner (about 1e175) is finite.
OVERFLOW_SCENARIO = "overflow-radial-full"
OVERFLOW_ERROR = f"[{OVERFLOW_SCENARIO}] non-finite integrand value at node (256, 256)"

BANK_WIDTHS = ("0.5", "0.75", "1.5", "2")
BANK_WINDOWS = ("gaussian:a=1", "hermite:n=1", "hermite:n=2")
WEIGHT_EXPONENTS = ("1", "1.5", "2")
IDENTITY_BANK = ("gaussian:a=1", "hermite:n=1", "hermite:n=2", "gaussian:a=0.5")
ROTATION_SIGNALS = IDENTITY_BANK
ROTATION_TRANSLATIONS = ("-1", "-0.5", "0", "0.5", "1")  # lattice multiples of 1/32
# (variant, p, eps, expectation) on the unit Gaussian pair at N = 1024
SUPPORT_L1 = [("l1_fraction", p, e, "holds") for p in ("2", "3", "4") for e in ("0", "0.1", "0.25")]
SUPPORT_ENERGY = [("lp_vs_energy", p, e, "holds") for p in ("1", "1.5") for e in ("0", "0.1", "0.25")] + [
    ("lp_vs_energy", "2", e, "holds") for e in ("0.1", "0.25")
]
SUPPORT_L1P = [
    ("lp_vs_l1p", "1", "0.1", "holds"),
    ("lp_vs_l1p", "1", "0.25", "holds"),
    ("lp_vs_l1p", "1.5", "0.1", "unsatisfiable"),
    ("lp_vs_l1p", "1.2", "0.1", "unsatisfiable"),
]

EXPORT_UNIT_PAIR = ("gaussian:a=1", "gaussian:a=1")
EXPORT_CALLS = 3


@dataclass
class Workload:
    """The commands of one workload.

    `argv(out)` gives the command lines that write under the directory out.
    One operation is one scenario of a `run` command, or one export.
    """

    name: str
    config: Path | None  # generated config, None when the commands need none
    scenarios: list[str]  # scenario names of the run command, in order
    exports: list[tuple[str, str]]  # (f, g) spec of each export
    known_error: str | None = None  # the one scenario error line accepted as a failure

    @property
    def operations(self) -> int:
        """Operations in one command."""
        return len(self.scenarios) if self.scenarios else 1

    def argv(self, out: Path) -> list[list[str]]:
        if self.exports:
            return [
                ["export-stft", "--f", f, "--g", g, "--out", str(out / f"export{i}.csv")]
                for i, (f, g) in enumerate(self.exports)
            ]
        config = "paper-suite" if self.config is None else str(self.config)
        return [["run", config, "--out", str(out), "--no-timestamp"]]


def _p(rng: random.Random, lo: float, hi: float) -> str:
    return f"{rng.uniform(lo, hi):.3f}"


def _lieb_exponents(rng: random.Random) -> str:
    # one exponent inside each open interval, never an integer
    return ", ".join(["1", _p(rng, 1.05, 1.95), "2", _p(rng, 2.05, 2.95), _p(rng, 4.05, 5.95)])


def large_grid_config(seed: int) -> str:
    """INI text of the large-grid workload for a seed."""
    rng = random.Random(seed)
    width = rng.choice(BANK_WIDTHS)
    window = rng.choice(BANK_WINDOWS)
    support = [rng.choice(SUPPORT_L1), rng.choice(SUPPORT_ENERGY), rng.choice(SUPPORT_L1P)]
    tuples = [", ".join(rng.choice(IDENTITY_BANK) for _ in range(4)) for _ in range(2)]
    rot_f = rng.choice(ROTATION_SIGNALS)
    shifts = [f"{rng.choice(ROTATION_TRANSLATIONS)} {rng.uniform(-1, 1):.3f}" for _ in range(2)]
    sections = [
        f"[bank]\nf = gaussian:a={width}\ng = {window}\n{LARGE_LAYOUT}"
        "checks = isometry, lieb, weights, decay\n"
        f"lieb_p = {_lieb_exponents(rng)}\n"
        f"weights = radial_half p={rng.choice(WEIGHT_EXPONENTS)}; hyperbolic p={rng.choice(WEIGHT_EXPONENTS)}\n",
        f"[unit-pair]\nf = gaussian:a=1\ng = gaussian:a=1\n{LARGE_LAYOUT}"
        "checks = closed_form, lieb, weights, support\n"
        f"lieb_p = {_lieb_exponents(rng)}\nlieb_equality_tol = 1e-5\n"
        "weights = radial_half p=1 field=closed slope=2.0 slope_tol=0.1;"
        " hyperbolic p=1 field=closed slope=1.0 slope_tol=0.15\n"
        "support = "
        + "; ".join(f"{v} p={p} eps={e}" + ("" if x == "holds" else f" expect={x}") for v, p, e, x in support)
        + "\n",
        f"[identity]\n{LARGE_LAYOUT}checks = identity\nidentity_tuples = {'; '.join(tuples)}\n",
        f"[rotation]\nf = {rot_f}\ng = gaussian:a=1\n{LARGE_LAYOUT}checks = rotation\n"
        f"rotation_z = {'; '.join(shifts)}\n",
        f"[{OVERFLOW_SCENARIO}]\nf = gaussian:a=1\ng = gaussian:a=1\n{LARGE_LAYOUT}checks = weights\n"
        "weights = radial_full p=2 field=closed radii=5:6:7:8\n",
    ]
    return "\n".join(sections)


def _export_spec(rng: random.Random) -> str:
    shift = f"z={rng.uniform(-1.5, 1.5):.3f}:w={rng.uniform(-1.5, 1.5):.3f}"
    if rng.random() < 0.5:
        return f"gaussian:a={rng.uniform(0.5, 2.0):.3f}:{shift}"
    return f"hermite:n={rng.randint(0, 3)}:{shift}"


def export_pairs(seed: int) -> list[tuple[str, str]]:
    """The unit Gaussian pair, then pairs of unit-norm functions drawn from the seed."""
    rng = random.Random(seed)
    drawn = [(_export_spec(rng), _export_spec(rng)) for _ in range(EXPORT_CALLS - 1)]
    return [EXPORT_UNIT_PAIR] + drawn


WORKLOADS = ("paper-suite", "large-grid", "export")


def suite_scenarios(config: Path) -> list[str]:
    parser = configparser.ConfigParser(interpolation=None)
    with open(config, encoding="utf-8") as fh:
        parser.read_file(fh)
    return parser.sections()


def build(name: str, seed: int, workdir: Path, suite_config: Path) -> Workload:
    """Generate the workload's inputs under workdir.

    suite_config is the bundled paper-suite config; its sections are the
    scenarios the paper-suite workload runs.
    """
    if name == "paper-suite":
        return Workload(name, None, suite_scenarios(suite_config), [])
    if name == "large-grid":
        config = workdir / "large_grid.ini"
        config.write_text(large_grid_config(seed), encoding="utf-8")
        scenarios = ["bank", "unit-pair", "identity", "rotation", OVERFLOW_SCENARIO]
        return Workload(name, config, scenarios, [], OVERFLOW_ERROR)
    if name == "export":
        return Workload(name, None, [], export_pairs(seed))
    raise ValueError(f"unknown workload {name!r} (choose from {', '.join(WORKLOADS)})")
