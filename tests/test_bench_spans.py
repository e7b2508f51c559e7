"""The benchmark traces tfu functions by module and name; a function that a
refactor renames or removes would make its per-layer metrics read 0."""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parent.parent / "tfubench" / "spans.py"

#: Functions removed from tfu that the benchmark still lists; it reports
#: their metrics as 0. An entry goes once the benchmark drops the function.
RETIRED = {("tfu.cli", "_greedy_matches_bruteforce")}


def traced_functions():
    spec = importlib.util.spec_from_file_location("tfubench_spans", SPANS)
    spans = sys.modules[spec.name] = importlib.util.module_from_spec(spec)  # dataclasses look it up
    spec.loader.exec_module(spans)
    return sorted({(module, function) for _, module, function, _, _ in spans.TRACED})


@pytest.mark.parametrize("module, function", sorted(set(traced_functions()) - RETIRED))
def test_traced_function_exists(module, function):
    assert callable(getattr(importlib.import_module(module), function, None))


@pytest.mark.parametrize("module, function", sorted(RETIRED))
def test_retired_function_is_traced_and_gone(module, function):
    assert (module, function) in traced_functions()
    assert not hasattr(importlib.import_module(module), function)
