#!/usr/bin/env python3
"""Run the benchmark once per seed and summarise each metric across runs.

    python3 tfubench/spread.py --workload <name> [--seeds 1-10] [--trace 0]

Prints every run's result, then per metric the median over runs and the
spread: the distance between the first and third quartile as a share of the
median (statistics.quantiles with n=4). Run lengths come from BENCHMARK.json.
The reference figures in README.md were made with this script.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seeds(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    parser.add_argument("--trace", default="0")
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    values: dict[str, list[float]] = {}
    shares = set()
    for seed in args.seeds:
        argv = [*spec["command"], "--workload", args.workload, "--seed", str(seed)]
        argv += ["--seconds", str(spec["run_seconds"]), "--trace", args.trace]
        done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True)
        if done.returncode != 0:
            print(done.stderr, file=sys.stderr)
            return 1
        result = json.loads(done.stdout.splitlines()[-1])
        print(seed, json.dumps(result), flush=True)
        shares.add((result["correct"], result["failed"] / result["attempted"]))
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
    print(f"(correct, failed share) over runs: {sorted(shares)}")
    for name, vals in values.items():
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
        spread = (q3 - q1) / med if med else float("nan")
        print(f"{name:46s} median {med:.6g}  spread {spread:.4f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
