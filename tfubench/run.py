#!/usr/bin/env python3
"""Benchmark of the tfu command line, run from a source checkout.

    python3 tfubench/run.py --workload <paper-suite|large-grid|export>
                            --seed <n> --seconds <s> --trace <0|1>

The package is imported from the checkout's own src/; nothing is installed.
Each round takes the workload's next command and runs it as a fresh process
(cold) and through tfu.cli.main in this process (warm), until --seconds
have passed. Every output is checked (see checks.py) and must be
byte-identical to the command's first execution. With --trace 0 the last
stdout line reports the end-to-end metrics; with --trace 1 the per-layer
metrics, from spans recorded around tfu's functions (see spans.py) in warm
rounds that alternate untraced and traced, both with TFU_THREADS=1, so that
the tracing overhead is measured too. README.md describes the metrics.

Transient outputs go to .bench_out/ at the checkout root and are removed at
exit; the spans of the last traced run stay there as spans-<workload>.jsonl.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import workloads
from spans import PER_LAYER, Tracer, layer_stats

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_ROOT = ROOT / ".bench_out"
#: Fewest set-up measurements in a run; one is made in every round, so
#: that they spread over the whole run.
MIN_SETUPS = 5
#: Settings the end-to-end metrics are measured without.
PROGRAM_SETTINGS = ("TFU_THREADS", "TFU_PURE_KERNELS")

# What the installed `tfu` console script runs.
CLI_CHILD = "import sys; from tfu.cli import main; sys.exit(main())"
# Set-up: a fresh interpreter until tfu.cli is imported and the workload's
# config (or the function specs of its exports) is parsed.
SETUP_CHILD = """\
import json, sys
import tfu.cli as cli
for argv in json.loads(sys.argv[1]):
    args = cli.build_parser().parse_args(argv)
    if args.command == "run":
        cli.load_config(cli._resolve_config(args.config))
    else:
        cli.parse_function_spec(args.f)
        cli.parse_function_spec(args.g)
"""


def steal_ticks() -> int:
    """CPU time the hypervisor has taken from this machine, in clock ticks:
    the steal column of /proc/stat, or 0 where the kernel reports none."""
    try:
        with open("/proc/stat", encoding="ascii") as fh:
            return int(fh.readline().split()[8])
    except (OSError, IndexError, ValueError):
        return 0


def quiet_median(samples: list[tuple[float, int]]) -> float:
    """Median of the timings whose measurement lost no more CPU time to the
    hypervisor than the median one did; samples are (seconds, steal ticks).

    On a shared virtual machine stolen time is the largest source of noise
    and comes in bursts lasting seconds; it is no property of the program.
    """
    limit = statistics.median(steal for _, steal in samples)
    return statistics.median(t for t, steal in samples if steal <= limit)


def child_env() -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if k not in PROGRAM_SETTINGS}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


class Spawner:
    """The small process that starts and reaps every child (see spawner.py)."""

    def __init__(self, log: Path) -> None:
        self.proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).with_name("spawner.py")), str(log)],
            cwd=ROOT,
            env=child_env(),
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
        )

    def run(self, argv: list[str]) -> tuple[tuple[float, int], float, int]:
        """((wall seconds, steal ticks), peak RSS in MiB, exit code) of one child."""
        stolen = steal_ticks()
        self.proc.stdin.write(json.dumps(argv) + "\n")
        self.proc.stdin.flush()
        reply = self.proc.stdout.readline()
        if not reply:
            raise RuntimeError(f"spawner exited with code {self.proc.wait()}")
        wall, rss, code = json.loads(reply)
        return (wall, steal_ticks() - stolen), rss, code

    def close(self) -> None:
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=120)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


class Bench:
    """Executes the workload's commands one at a time and checks each execution."""

    def __init__(self, wl: workloads.Workload, work: Path, spawner: Spawner) -> None:
        from tfu import DEFAULT_LAYOUT, TFGrid, cli, compute_stft, sample

        self.wl = wl
        self.work = work
        self.cli = cli
        self.spawner = spawner
        self.commands = len(wl.argv(work))
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self._reference: dict[int, tuple[str, int]] = {}  # command -> (digest, failed)
        self._outs = 0
        grid = TFGrid.from_layout(DEFAULT_LAYOUT)
        self._fields = [
            compute_stft(
                sample(cli.parse_function_spec(f), DEFAULT_LAYOUT),
                sample(cli.parse_function_spec(g), DEFAULT_LAYOUT),
                grid,
            )
            for f, g in wl.exports
        ]

    def _command(self, i: int) -> tuple[Path, list[str]]:
        self._outs += 1
        out = self.work / f"out{self._outs}"
        out.mkdir()
        return out, self.wl.argv(out)[i]

    def setup(self) -> tuple[float, int]:
        argv = [sys.executable, "-c", SETUP_CHILD, json.dumps(self.wl.argv(self.work / "unused"))]
        elapsed, _, code = self.spawner.run(argv)
        if code != 0:
            raise RuntimeError(f"set-up child exited {code}; see {self.work / 'children.log'}")
        return elapsed

    def cold(self, i: int) -> tuple[tuple[float, int], float]:
        """Command i in a fresh process: ((wall seconds, steal ticks), peak RSS in MiB)."""
        out, argv = self._command(i)
        wall, peak, code = self.spawner.run([sys.executable, "-c", CLI_CHILD, *argv])
        self._verify(i, out, code, full=False)
        return wall, peak

    def warm(self, i: int, full: bool = False) -> tuple[float, int]:
        """Command i through tfu.cli.main in this process: (seconds, steal ticks)."""
        out, argv = self._command(i)
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            stolen = steal_ticks()
            start = time.perf_counter()
            code = self.cli.main(argv)
            elapsed = time.perf_counter() - start
            stolen = steal_ticks() - stolen
        self._verify(i, out, code, full)
        return elapsed, stolen

    def _verify(self, i: int, out: Path, code: int, full: bool) -> None:
        """Check command i's outputs in full on its first execution (or when
        asked); afterwards their bytes must equal the first execution's."""
        failed = 0
        try:
            found = checks.digest(out)
            if full or i not in self._reference:
                failed = self._check(i, out)
                self._reference.setdefault(i, (found, failed))
            reference, failed = self._reference[i]
            if found != reference:
                raise checks.CheckError("outputs differ from the first execution's bytes")
            if code != (1 if failed else 0):
                raise checks.CheckError(f"exit code {code} with {failed} failed scenarios")
        except checks.CheckError as exc:
            self.errors.append(str(exc))
        self.attempted += self.wl.operations
        self.failed += failed
        shutil.rmtree(out)

    def _check(self, i: int, out: Path) -> int:
        if not self.wl.exports:
            return checks.check_run(out, self.wl.scenarios, self.wl.known_error)
        pair = self.wl.exports[i]
        checks.check_export(out / f"export{i}.csv", self._fields[i], pair == workloads.EXPORT_UNIT_PAIR)
        return 0


def end_to_end(bench: Bench, seconds: float) -> dict[str, tuple[float, str]]:
    bench.setup()  # compiles the bytecode caches; not measured
    for i in range(bench.commands):
        bench.warm(i, full=True)
    setups, walls, peaks, warms = [], [], [], []
    start = time.perf_counter()
    while not warms or time.perf_counter() - start < seconds:
        i = len(warms) % bench.commands
        setups.append(bench.setup())
        wall, peak = bench.cold(i)
        walls.append(wall)
        peaks.append(peak)
        warms.append(bench.warm(i))
    while len(setups) < MIN_SETUPS:
        setups.append(bench.setup())
    print(f"{len(warms)} rounds", file=sys.stderr)
    return {
        "setup_s": (quiet_median(setups), "s"),
        "wall_s": (quiet_median(walls), "s"),
        "inproc_s": (quiet_median(warms), "s"),
        "peak_rss_mb": (statistics.median(peaks), "MiB"),
    }


def per_layer(bench: Bench, seconds: float, spans_path: Path) -> dict[str, tuple[float, str]]:
    # One scenario at a time, so that a layer's self time is time spent in
    # it, not time its thread waited for the interpreter lock.
    os.environ["TFU_THREADS"] = "1"
    for i in range(bench.commands):
        bench.warm(i, full=True)
    tracer = Tracer()
    plain, traced, rounds = [], [], []
    start = time.perf_counter()
    while not traced or time.perf_counter() - start < seconds:
        i = len(traced) % bench.commands
        plain.append(bench.warm(i))
        first = len(tracer.spans)
        missing = tracer.install()
        try:
            traced.append(bench.warm(i, full=True))
        finally:
            tracer.uninstall()
        rounds.append(layer_stats(tracer.spans[first:]))
    tracer.write(spans_path)
    print(f"{len(traced)} rounds, {len(tracer.spans)} spans in {spans_path}", file=sys.stderr)
    if missing:
        print(f"not traced, as their functions do not exist: {', '.join(missing)}", file=sys.stderr)
    metrics = {name: (statistics.median(r.get(name, 0.0) for r in rounds), unit) for name, unit in PER_LAYER}
    metrics["trace.overhead_s"] = (quiet_median(traced) - quiet_median(plain), "s")
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "tfu" / "cli.py").is_file():
        print(f"error: no tfu sources under {SRC}", file=sys.stderr)
        return 2
    for name in PROGRAM_SETTINGS:
        os.environ.pop(name, None)
    sys.path.insert(0, str(SRC))

    OUT_ROOT.mkdir(exist_ok=True)
    work = OUT_ROOT / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir()
    spawner = Spawner(work / "children.log")
    try:
        suite_config = SRC / "tfu" / "configs" / "paper_suite.ini"
        bench = Bench(workloads.build(args.workload, args.seed, work, suite_config), work, spawner)
        if args.trace:
            metrics = per_layer(bench, args.seconds, OUT_ROOT / f"spans-{args.workload}.jsonl")
        else:
            metrics = end_to_end(bench, args.seconds)
    finally:
        spawner.close()
        shutil.rmtree(work, ignore_errors=True)
    for error in dict.fromkeys(bench.errors):
        print(f"check failed: {error}", file=sys.stderr)
    result = {
        "correct": not bench.errors,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
