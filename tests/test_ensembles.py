"""The trial loops of lacspec.experiments against single-trial calls, and
their memory."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from test_concentration import lemma_oracle

from lacspec import concentration
from lacspec.concentration import lemma_main_report, theorem_split_check
from lacspec.errors import ConfigError
from lacspec.experiments import (
    _gaussian_rows,
    lemma_trials,
    schedule_from,
    split_trials,
    trial_blocks,
)
from lacspec.sequences import Sequence
from lacspec.sets import periodic_comb
from lacspec.synthesis import BandFunction, Grid, random_band_function


def trial_rng(seed, trial):
    return np.random.Generator(np.random.Philox(key=np.array([seed, trial], dtype=np.uint64)))


def per_function_lemma_rows(seq, E, grid, L, seed, trials):
    """Oracle: the lemma loop with one random_band_function per frequency,
    each trial's terms by Gauss-Legendre quadrature (``lemma_oracle``)."""
    rows = []
    for trial in range(trials):
        rng = trial_rng(seed, trial)
        f_list = [random_band_function(grid, rng) for _ in seq.values]
        rows.append(lemma_oracle(f_list, seq, E, (0.0, 1.0 / L)))
    return rows


@pytest.mark.parametrize("period, L, direct", [
    (16.0, 4, True),  # the 34 x 34 form A of two unit bands fits S = 4096 entries
    (16.0, 1, False),  # ... not S = 1024: A is assembled in row blocks
    (15.9999999999, 4, True),  # 4 T and 16 T within the snap tolerance of bins 64 and 256
])
def test_lemma_rows_are_the_per_function_ones(period, L, direct):
    grid = Grid(period, 4096 if direct else 1024)
    E = periodic_comb(0.5, 1.0, (0.0, period))
    seq = Sequence((4, 16))
    n = len(seq) * grid.band_bins((0.0, 1.0)).size
    assert (n * n <= grid.samples) == direct
    assert all((grid.bin_of(lam) / period == lam) == (period == 16.0) for lam in seq.values)
    rows = lemma_trials(seq, E, grid, L, 5, 6)
    for row, oracle in zip(rows, per_function_lemma_rows(seq, E, grid, L, 5, 6), strict=True):
        got = (row.lhs, row.term_density, row.term_sobolev)
        np.testing.assert_allclose(got, oracle, rtol=1e-13, atol=0)


@pytest.mark.parametrize("widths", [[9] * 4, [17] * 3, [1], [3, 1, 5, 2], [33, 9]])
@pytest.mark.parametrize("seed", [0, 7, 2**63 - 1])
def test_gaussian_rows_are_the_per_block_draws(widths, seed):
    # one normal draw per trial, dealt out by index, is the stream of one
    # draw per block and part
    rows = _gaussian_rows(seed, 5, widths)
    for trial, row in enumerate(rows):
        rng = trial_rng(seed, trial)
        want = np.concatenate([rng.standard_normal(w) + 1j * rng.standard_normal(w)
                               for w in widths])
        assert row.tobytes() == want.tobytes()


def test_seeds_past_2_63_key_their_own_generators():
    # a key given as a list passed through float64 from 2**63 on: 2**63 + 5
    # and 2**63 + 6 both keyed [2**63, t], and 2**64 - 1 warned of an
    # invalid cast.  Below 2**63 the list and the uint64 words are one key.
    for seed in (0, 5, 2**31 - 1, 2**62 + 3, 2**63 - 1):
        for trial in (0, 3):
            listed = np.random.Philox(key=[seed, trial]).state["state"]["key"]
            words = np.random.Philox(key=np.array([seed, trial], dtype=np.uint64))
            assert listed.tolist() == words.state["state"]["key"].tolist() == [seed, trial]
    seeds = (2**63 - 1, 2**63, 2**63 + 5, 2**63 + 6, 2**64 - 1)
    rows = [_gaussian_rows(seed, 3, [4, 2]) for seed in seeds]
    assert len({r.tobytes() for r in rows}) == len(seeds)
    for seed, r in zip(seeds, rows):
        for trial, row in enumerate(r):
            rng = trial_rng(seed, trial)
            want = np.concatenate([rng.standard_normal(w) + 1j * rng.standard_normal(w)
                                   for w in (4, 2)])
            assert row.tobytes() == want.tobytes()


def test_ensembles_transform_nothing(monkeypatch):
    def refuse(*args, **kwargs):
        pytest.fail("numpy.fft was called")

    for name in np.fft.__all__:
        if callable(getattr(np.fft, name)):
            monkeypatch.setattr(np.fft, name, refuse)
    grid = Grid(16.0, 16384)
    E = periodic_comb(0.5, 1.0, (0.0, 16.0))
    assert len(lemma_trials(Sequence((3, 9, 27)), E, grid, 8, 7, 4)) == 4
    assert len(lemma_trials(Sequence((3, 9, 27)), E, grid, 1, 7, 4)) == 4
    assert len(split_trials(Sequence((2, 8, 32)), E, grid, 1, schedule_from([[1, 2]]), 7, 4)) == 4


def test_trials_build_no_band_function_and_synthesize_once(monkeypatch):
    built, synthesized = [], []
    post_init, synthesize = BandFunction.__post_init__, concentration.synthesize
    monkeypatch.setattr(BandFunction, "__post_init__",
                        lambda self: built.append(self) or post_init(self))
    monkeypatch.setattr(concentration, "synthesize",
                        lambda *args: synthesized.append(args) or synthesize(*args))
    grid = Grid(16.0, 4096)
    E = periodic_comb(0.5, 1.0, (0.0, 16.0))
    lemma_trials(Sequence((4, 16, 64)), E, grid, 4, 7, 20)
    assert built == []
    split_trials(Sequence((4, 16, 64)), E, grid, 1, schedule_from([[1, 2]]), 7, 20)
    assert len(synthesized) == 1


# the dense forms of these shapes (27 and 9 bins, 27^2 <= S) evaluate all
# trials in one stacked product; each row keeps the bits it has alone, at
# seeds drawn from each base and 1 to 70 trials
@pytest.mark.parametrize("base", [0, 11])
@given(st.integers(0, 2**64 - 12), st.integers(1, 70))
@example(0, 4)
@settings(max_examples=6, deadline=None)
def test_split_rows_equal_single_calls(base, offset, trials):
    seed = base + offset
    grid = Grid(8.0, 2048)
    E = periodic_comb(0.5, 1.0, (0.0, 8.0))
    seq = Sequence((4, 16, 64))
    schedule = schedule_from([[1, 2]])
    rows = split_trials(seq, E, grid, 1, schedule, seed, trials)
    blocks = trial_blocks(seq, grid, seed, trials)
    assert rows == [theorem_split_check(b, seq, schedule, 1, E, grid) for b in blocks]


@pytest.mark.parametrize("base", [0, 11])
@given(st.integers(0, 2**64 - 12), st.integers(1, 70))
@example(0, 4)
@settings(max_examples=6, deadline=None)
def test_lemma_rows_equal_single_calls(base, offset, trials):
    seed = base + offset
    grid = Grid(8.0, 2048)
    E = periodic_comb(0.5, 1.0, (0.0, 8.0))
    seq = Sequence((4, 16, 64))
    rows = lemma_trials(seq, E, grid, 4, seed, trials)
    assert len(rows) == trials
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
    # one trial's arrays at a time, plus the forms the trials share: no table
    # may grow with the number of trials or with the grid's samples
    split_grid = Grid(8.0, 2**22)
    split_set = periodic_comb(0.5, 1.0, (0.0, 8.0))
    schedule = schedule_from([[1, 2]])
    split_peak = traced_peak_mib(lambda: split_trials(
        Sequence((3, 9, 27, 81)), split_set, split_grid, 1, schedule, 7, 60))
    lemma_grid = Grid(16.0, 2**22)
    lemma_set = periodic_comb(0.5, 1.0, (0.0, 16.0))
    lemma_peak = traced_peak_mib(lambda: lemma_trials(
        Sequence((3, 9, 27)), lemma_set, lemma_grid, 8, 7, 30))
    assert split_peak < 5.0
    assert lemma_peak < 8.0


@pytest.mark.parametrize("samples, resolved", [(1615, False), (1617, True)])
def test_lemma_grid_check_takes_the_bins_the_trials_fill(samples, resolved):
    # 100*T is 1e-8 short of 800: bin_of(100) is 800, and the band (0, 1)
    # holds bins 0..8, so the trials fill bins 800..808, though the bins of
    # [100, 101] end at 807; 2*808 = 1616 must stay below S
    T = 7.9999999999
    grid = Grid(T, samples)
    E = periodic_comb(0.5, 1.0, (0.0, T))
    seq = Sequence((100,))
    if resolved:
        (row,) = lemma_trials(seq, E, grid, 4, 0, 1)
        f = random_band_function(grid, trial_rng(0, 0))
        assert row == lemma_main_report([f], seq, E, (0.0, 0.25), 4)
    else:
        with pytest.raises(ConfigError, match="grid: Nyquist violation: bin 808"):
            lemma_trials(seq, E, grid, 4, 0, 1)


def test_lemma_window_longer_than_the_period_is_a_grid_error():
    # I = [0, 1/L] = [0, 1] does not fit in [0, T] = [0, 0.5]
    grid = Grid(0.5, 1024)
    E = periodic_comb(0.5, 0.25, (0.0, 0.5))
    with pytest.raises(ConfigError, match=r"grid: interval I = \[0.0, 1.0\] is not inside "
                                          r"the grid window \[0, T\] = \[0.0, 0.5\]"):
        lemma_trials(Sequence((4, 16)), E, grid, 1, 0, 1)
    assert len(lemma_trials(Sequence((4, 16)), E, grid, 2, 0, 1)) == 1  # I = [0, T]
