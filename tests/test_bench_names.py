"""The library names the benchmark harness looks up: a refactor that moves
one of them breaks a benchmark run with a KeyError or an AttributeError, so
it fails here first."""

import ast
import functools
import importlib
import importlib.util
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "bench"
TRACING = BENCH / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("target", load_tracing()._targets(),
                         ids=lambda t: f"{t[0].__name__}.{t[1]}")
def test_every_traced_name_is_where_the_tracer_wraps_it(target):
    owner, attr = target[:2]
    assert attr in vars(owner)  # the Recorder reads owner.__dict__[attr]
    assert callable(getattr(owner, attr))


def lacspec_names(tree) -> dict:
    """Each name an import binds to lacspec or a part of it: the dotted path
    of what it binds (``import lacspec`` binds lacspec itself), and the line."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "lacspec":
                    bound = alias.name if alias.asname else "lacspec"
                    names[alias.asname or "lacspec"] = bound, node.lineno
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "lacspec":
            for alias in node.names:
                names[alias.asname or alias.name] = f"{node.module}.{alias.name}", node.lineno
    return names


def bench_references() -> dict:
    """Every dotted lacspec path that a bench/*.py file imports or reaches by
    an attribute chain on an imported name, with where it first appears."""
    found = {}
    for path in sorted(BENCH.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        names = lacspec_names(tree)
        for dotted, line in names.values():
            found.setdefault(dotted, f"{path.name}:{line}")
        for node in ast.walk(tree):
            chain = []
            while isinstance(node, ast.Attribute):
                chain.insert(0, node.attr)
                node = node.value
            if chain and isinstance(node, ast.Name) and node.id in names:
                dotted = ".".join([names[node.id][0], *chain])
                found.setdefault(dotted, f"{path.name}:{node.lineno}")
    return found


def resolve(dotted: str):
    """The object at a dotted path below lacspec (``import lacspec`` imports
    every module of it)."""
    return functools.reduce(getattr, dotted.split(".")[1:], importlib.import_module("lacspec"))


def test_the_names_the_harness_calls_resolve():
    references = bench_references()
    # the calls the workloads, the runner and the probe make themselves
    assert {"lacspec.sequences.build_counterexample",
            "lacspec.experiments.ExperimentConfig.from_file",
            "lacspec.hermitian_eigensystem",
            "lacspec.sets.ThickSet.measure_in",
            "lacspec.BandFunction.from_spectrum"} <= set(references)
    missing = []
    for dotted, where in sorted(references.items()):
        try:
            resolve(dotted)
        except AttributeError as exc:
            missing.append(f"{where}: {dotted} ({exc})")
    assert not missing
