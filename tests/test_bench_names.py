"""The library names the benchmark harness looks up: a refactor that moves
one of them breaks a traced benchmark run with a KeyError, so it fails here
first."""

import importlib.util
from pathlib import Path

import pytest

from lacspec import BandFunction, sets

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


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


def test_the_names_the_harness_calls_resolve():
    assert callable(sets.ThickSet.measure_in)  # counted by the Recorder
    assert callable(BandFunction.from_spectrum)  # the warm-up and the set-up probe
