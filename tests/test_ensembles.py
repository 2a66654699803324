"""The trial loops of lacspec.experiments against single-trial calls, and
their memory."""

import tracemalloc

import numpy as np
import pytest

from lacspec.concentration import lemma_main_report, theorem_split_check
from lacspec.experiments import lemma_trials, schedule_from, split_trials, trial_blocks
from lacspec.sequences import Sequence
from lacspec.sets import periodic_comb
from lacspec.synthesis import Grid, random_band_function


def trial_rng(seed, trial):
    return np.random.Generator(np.random.Philox(key=[seed, trial]))


@pytest.mark.parametrize("seed", [0, 11])
def test_split_rows_equal_single_calls(seed):
    grid = Grid(8.0, 2048)
    E = periodic_comb(0.5, 1.0, (0.0, 8.0))
    seq = Sequence((4, 16, 64))
    schedule = schedule_from([[1, 2]])
    rows = split_trials(seq, E, grid, 1, schedule, seed, 4)
    blocks = trial_blocks(seq, grid, seed, 4)
    assert rows == [theorem_split_check(b, seq, schedule, 1, E, grid) for b in blocks]


@pytest.mark.parametrize("seed", [0, 11])
def test_lemma_rows_equal_single_calls(seed):
    grid = Grid(8.0, 2048)
    E = periodic_comb(0.5, 1.0, (0.0, 8.0))
    seq = Sequence((4, 16, 64))
    rows = lemma_trials(seq, E, grid, 4, seed, 4)
    for trial, row in enumerate(rows):
        rng = trial_rng(seed, trial)
        f_list = [random_band_function(grid, rng) for _ in range(len(seq))]
        assert row == lemma_main_report(f_list, seq, E, (0.0, 0.25), 4)


def traced_peak_mib(call) -> float:
    """tracemalloc peak of ``call()`` after one warm call."""
    call()
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def test_ensemble_peak_allocations():
    # one trial's arrays at a time, plus the per-run cell weights: no table
    # may grow with the number of trials
    split_grid = Grid(8.0, 32768)
    split_set = periodic_comb(0.5, 1.0, (0.0, 8.0))
    schedule = schedule_from([[1, 2]])
    split_peak = traced_peak_mib(lambda: split_trials(
        Sequence((3, 9, 27, 81)), split_set, split_grid, 1, schedule, 7, 60))
    lemma_grid = Grid(16.0, 32768)
    lemma_set = periodic_comb(0.5, 1.0, (0.0, 16.0))
    lemma_peak = traced_peak_mib(lambda: lemma_trials(
        Sequence((3, 9, 27)), lemma_set, lemma_grid, 8, 7, 30))
    assert split_peak < 5.0
    assert lemma_peak < 8.0
