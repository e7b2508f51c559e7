"""The benchmark traces tfu functions by module and name; a function that a
refactor renames or removes would make its per-layer metrics read 0. Its
runner and checks also call tfu by name, which must resolve as well."""

import ast
import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "tfubench"
SPANS = BENCH / "spans.py"

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


def bench_names():
    """(module, name) for every tfu.cli.<name> that tfubench's runner,
    checks and workloads read through a name bound to tfu.cli, and every
    name they import from tfu, in their code and in the code of the
    child-process strings they run."""
    names = set()
    for script in ("run.py", "checks.py", "workloads.py"):
        trees = [ast.parse((BENCH / script).read_text())]
        for node in ast.walk(trees[0]):
            if isinstance(node, ast.Constant) and isinstance(node.value, str) and "tfu" in node.value:
                try:
                    trees.append(ast.parse(node.value))
                except SyntaxError:
                    pass  # prose, not code
        for node in (node for tree in trees for node in ast.walk(tree)):
            if isinstance(node, ast.ImportFrom) and node.module and node.module.split(".")[0] == "tfu":
                names.update((node.module, alias.name) for alias in node.names)
            elif isinstance(node, ast.Attribute) and getattr(node.value, "id", getattr(node.value, "attr", None)) == "cli":
                names.add(("tfu.cli", node.attr))
    return sorted(names)


def test_bench_reads_names_from_tfu():
    # the runner's own calls must be seen, or the test below checks nothing
    assert {("tfu.cli", "main"), ("tfu", "compute_stft"), ("tfu.cli", "import_tfarray")} <= set(bench_names())


@pytest.mark.parametrize("module, name", bench_names())
def test_bench_name_resolves(module, name):
    # a name imported from a package may be one of its modules: tfu.cli
    if not hasattr(importlib.import_module(module), name):
        importlib.import_module(f"{module}.{name}")
