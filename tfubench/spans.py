"""Spans around calls into tfu's layers, recorded from outside the package.

`Tracer.install()` replaces each traced function, on every loaded tfu module
that binds it, with a wrapper that records a span: name, start, end, parent
span and thread. Each thread keeps its own stack of open spans. Spans stay
in memory until the run writes them out; self time is derived from them.
"""

from __future__ import annotations

import itertools
import json
import os
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path


def _arg(args: tuple, kwargs: dict, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


def _size(index: int, name: str):
    return lambda a, k: int(_arg(a, k, index, name).size)


def _file_bytes(index: int, name: str):
    return lambda a, k: os.path.getsize(_arg(a, k, index, name))


def _cells(a, k) -> int:
    grid = _arg(a, k, 2, "grid")
    return grid.x_count * grid.xi_count


def _field_cells(a, k) -> int:
    return int(_arg(a, k, 0, "v").values.size)


#: (span name, module, function, work stat, work count from (args, kwargs)).
#: Layer names are the module names, except that `_kernels` is written
#: `kernels` because a metric name must start with a letter or a digit.
#: cli.report_write covers both report writers.
TRACED = [
    ("reference.sample", "tfu.reference", "sample", None, None),
    ("core._centered_fft", "tfu.core", "_centered_fft", "points", _size(0, "values")),
    ("stft.compute_stft", "tfu.stft", "compute_stft", "cells", _cells),
    ("identity.fundamental_identity_defect", "tfu.identity", "fundamental_identity_defect", None, None),
    ("identity.build_auxiliary", "tfu.identity", "build_auxiliary", None, None),
    ("identity.rotation_invariance_defect", "tfu.identity", "rotation_invariance_defect", None, None),
    ("weights.weighted_mass", "tfu.weights", "weighted_mass", None, None),
    ("weights.growth_scan", "tfu.weights", "growth_scan", None, None),
    ("support.sorted_cell_masses", "tfu.support", "sorted_cell_masses", "elements", _field_cells),
    ("support.lieb_ratio", "tfu.support", "lieb_ratio", None, None),
    ("kernels.cascade_sum", "tfu._kernels", "cascade_sum", "elements", _size(0, "values")),
    ("kernels.prefix_count", "tfu._kernels", "prefix_count", "elements", _size(0, "masses")),
    ("cli._greedy_matches_bruteforce", "tfu.cli", "_greedy_matches_bruteforce", None, None),
    ("cli.run_scenario", "tfu.cli", "run_scenario", None, None),
    ("cli.load_config", "tfu.cli", "load_config", None, None),
    ("cli.export_tfarray", "tfu.cli", "export_tfarray", "bytes", _file_bytes(1, "path")),
    ("cli.import_tfarray", "tfu.cli", "import_tfarray", None, None),
    ("cli.report_write", "tfu.cli", "_write_json", "bytes", _file_bytes(0, "path")),
    ("cli.report_write", "tfu.cli", "_write_csv", "bytes", _file_bytes(0, "path")),
]

#: Every per-layer metric the traced run reports, in BENCHMARK.json order.
PER_LAYER = [
    ("cli._greedy_matches_bruteforce.self_s", "s"),
    ("stft.compute_stft.calls", "count"),
    ("stft.compute_stft.cells", "count"),
    ("stft.compute_stft.self_s", "s"),
    ("support.sorted_cell_masses.calls", "count"),
    ("support.sorted_cell_masses.elements", "count"),
    ("core._centered_fft.points", "count"),
    ("core._centered_fft.self_s", "s"),
    ("support.lieb_ratio.self_s", "s"),
    ("weights.weighted_mass.calls", "count"),
    ("weights.weighted_mass.self_s", "s"),
    ("weights.growth_scan.self_s", "s"),
    ("kernels.cascade_sum.calls", "count"),
    ("kernels.cascade_sum.elements", "count"),
    ("kernels.cascade_sum.self_s", "s"),
    ("kernels.prefix_count.elements", "count"),
    ("kernels.prefix_count.self_s", "s"),
    ("cli.export_tfarray.bytes", "bytes"),
    ("cli.export_tfarray.self_s", "s"),
    ("cli.import_tfarray.self_s", "s"),
    ("cli.report_write.calls", "count"),
    ("cli.report_write.bytes", "bytes"),
    ("cli.report_write.self_s", "s"),
    ("reference.sample.self_s", "s"),
    ("cli.load_config.self_s", "s"),
    ("identity.fundamental_identity_defect.self_s", "s"),
    ("identity.build_auxiliary.self_s", "s"),
    ("identity.rotation_invariance_defect.self_s", "s"),
    ("cli.run_scenario.self_s", "s"),
    ("trace.overhead_s", "s"),
]


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    thread: int
    work: int | None


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn, work):
        def traced(*args, **kwargs):
            stack = self._local.__dict__.setdefault("stack", [])
            span_id = next(self._ids)
            parent = stack[-1] if stack else None
            stack.append(span_id)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
            # counted only on success: an aborted call did no whole unit of work
            count = None if work is None else work(args, kwargs)
            self.spans.append(Span(span_id, name, start, end, parent, threading.get_ident(), count))
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> list[str]:
        """Wrap every traced function on every tfu module that binds it.

        Returns the spans whose function does not exist; their metrics read 0.
        """
        modules = [m for key, m in list(sys.modules.items()) if key == "tfu" or key.startswith("tfu.")]
        missing = []
        for name, module_name, attr, _, work in TRACED:
            original = getattr(sys.modules.get(module_name), attr, None)
            if original is None:
                missing.append(name)
                continue
            wrapper = self._wrap(name, original, work)
            for module in modules:
                if getattr(module, attr, None) is original:
                    self._saved.append((module, attr, original))
                    setattr(module, attr, wrapper)
        return missing

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def write(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps(s.__dict__) + "\n")


def layer_stats(spans: list[Span]) -> dict[str, float]:
    """calls, self_s and the work stat per span name.

    A span's self time is its duration minus the durations of its child
    spans, which nest inside it on the same thread.
    """
    child_time: dict[int, float] = defaultdict(float)
    for s in spans:
        if s.parent is not None:
            child_time[s.parent] += s.end - s.start
    work_stat = {name: stat for name, _, _, stat, _ in TRACED}
    stats: dict[str, float] = defaultdict(float)
    for s in spans:
        stats[f"{s.name}.calls"] += 1
        stats[f"{s.name}.self_s"] += (s.end - s.start) - child_time[s.id]
        if s.work is not None:
            stats[f"{s.name}.{work_stat[s.name]}"] += s.work
    return dict(stats)
