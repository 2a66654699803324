import dataclasses
import json
import math
import pickle
import re
from contextlib import contextmanager
from fractions import Fraction
from itertools import accumulate

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from lacspec import experiments, synthesis
from lacspec.concentration import ls_constant, theorem_split_check
from lacspec.sequences import Sequence, TailSchedule, build_counterexample, difference_set
from lacspec.sets import ThickSet, periodic_comb
from lacspec.synthesis import (
    FREQ_SNAP_TOL,
    LEAKAGE_TOL,
    BandFunction,
    Grid,
    SpectralProfile,
    bernstein_ratio,
    plancherel_polya_ratio,
    poisson_transform,
    random_band_function,
    spectral_support,
    split_uniformly_discrete,
    synthesize,
)

TWO_PI = 2 * math.pi
SNAP = 1e-9  # FREQ_SNAP_TOL, in bins


@pytest.fixture
def grid():
    return Grid(16.0, 1024)


@pytest.fixture
def rng():
    return np.random.Generator(np.random.Philox(20240601))


@contextmanager
def no_transform():
    """Fail on any FFT inside the block."""
    def refuse(*args, **kwargs):
        raise AssertionError("FFT called")

    saved = np.fft.fft, np.fft.ifft
    np.fft.fft = np.fft.ifft = refuse
    try:
        yield
    finally:
        np.fft.fft, np.fft.ifft = saved


def from_values(grid, values, support=None):
    """The function of the samples ``values``: its dense spectrum, FFT noise
    and all, as a function built from samples has."""
    return BandFunction.from_spectrum(grid, np.fft.fft(values) / grid.samples, support)


def pure_frequency(grid, freq, support=None):
    c = np.zeros(grid.samples, dtype=complex)
    c[grid.bin_of(freq) % grid.samples] = 1.0
    return BandFunction.from_spectrum(grid, c, support)


class TestGrid:
    def test_validation(self):
        with pytest.raises(ValueError):
            Grid(0.0, 64)
        with pytest.raises(ValueError):
            Grid(1.0, 1)
        for period in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match="period must be positive and finite"):
                Grid(period, 64)
        for period, samples in ((5e-324, 64), (1e-300, 2**40)):  # T/S is 0 or subnormal
            with pytest.raises(ValueError, match=rf"^period {period} over {samples} samples "
                                                 r"makes the spacing T/S = .*not a positive normal"):
                Grid(period, samples)
        Grid(8.0, synthesis.MAX_SAMPLES)  # no array is made
        with pytest.raises(ValueError, match="^67108865 samples are above 67108864, the most"):
            Grid(8.0, synthesis.MAX_SAMPLES + 1)

    def test_samples_must_be_an_integer(self):
        # 64.5 and 64.0 were accepted, and random_band_function on them then
        # failed with "bins must be integer FFT-order indices in [0, 64.5)"
        for samples in (64.5, 64.0, True, Fraction(64), "64", None):
            with pytest.raises(ValueError, match=r"^samples must be an integer, got "):
                Grid(8.0, samples)
        grid = Grid(8.0, np.int64(64))
        assert type(grid.samples) is int and grid == Grid(8.0, 64)
        assert hash(grid) == hash(Grid(8.0, 64))

    def test_off_grid_frequency_refused(self):
        g = Grid(8.0, 64)
        assert g.bin_of(0.25) == 2
        with pytest.raises(ValueError, match="not on the grid"):
            g.bin_of(0.3)

    def test_nyquist_check(self):
        g = Grid(8.0, 64)  # S/T = 8: bins up to 2|k| < 64
        assert g.bin_of(3.875) == 31
        assert g.band_bins((0.0, 3.9))[-1] == 31
        with pytest.raises(ValueError, match="Nyquist"):
            g.bin_of(4.0)
        with pytest.raises(ValueError, match="Nyquist"):
            g.band_bins((0.0, 4.0))


def support_intervals(support):
    return support.intervals() if isinstance(support, SpectralProfile) else (support,)


def signed_bins(S):
    """The signed bin k of each FFT index, from np.fft.fftfreq."""
    return np.rint(np.fft.fftfreq(S) * S).astype(np.int64)


def scan_bins(intervals, T):
    """Oracle: every integer k with lo*T - SNAP <= k <= hi*T + SNAP, by a scan."""
    found = set()
    for lo, hi in intervals:
        a, b = lo * T - SNAP, hi * T + SNAP
        found.update(k for k in range(math.floor(a) - 1, math.ceil(b) + 2) if a <= k <= b)
    return sorted(found)


edges = st.one_of(st.floats(-3, 3), st.integers(-24, 24).map(lambda k: k / 8))
bands = st.tuples(edges, st.floats(0, 2.5)).map(lambda t: (t[0], t[0] + t[1]))
profiles = st.tuples(edges, st.lists(st.floats(1.01, 3), max_size=2)).map(
    lambda t: SpectralProfile(Sequence(tuple(accumulate(t[1], initial=t[0])))))
periods = st.one_of(
    st.sampled_from([7.9999999999, 8.0, 8.0000000001, 3.0, 2.5, 1.0, 0.75]),
    st.floats(0.5, 12.0),
)


class TestBandBins:
    @given(periods, st.integers(2, 48), st.one_of(bands, profiles))
    @example(8.0, 64, SpectralProfile(Sequence((0.0, 1 + 1e-10))))  # bin 8 in both bands
    @settings(max_examples=400, deadline=None)
    def test_bins_match_a_scan_and_every_caller_agrees(self, T, S, support):
        grid = Grid(T, S)
        want = scan_bins(support_intervals(support), T)
        resolved = bool(want) and 2 * max(abs(k) for k in want) < S
        E = ThickSet(((0.0, T),), (0.0, T))
        c = (np.isin(signed_bins(S), want) if resolved else np.ones(S)).astype(complex)
        undeclared = BandFunction.from_spectrum(grid, np.ones(S, dtype=complex))
        object.__setattr__(undeclared, "declared_support", support)  # declared after the check
        callers = [lambda: ls_constant(E, support, grid),
                   lambda: BandFunction.from_spectrum(grid, c, support),
                   lambda: from_values(grid, np.fft.ifft(c) * S, support),
                   undeclared.leakage,
                   lambda: poisson_transform(undeclared)]
        if not isinstance(support, SpectralProfile):
            callers.append(lambda: random_band_function(grid, np.random.default_rng(0), support))
        if resolved:
            got = grid.band_bins(support)
            assert got.dtype == np.int64 and got.tolist() == want
            for call in callers:
                call()
            assert undeclared.leakage() == (S - len(want)) / S
            kept = np.flatnonzero(poisson_transform(undeclared).spectrum())
            assert sorted(signed_bins(S)[kept].tolist()) == want
        else:
            message = "Nyquist" if want else "holds no grid frequencies"
            for call in [lambda: grid.band_bins(support)] + callers:
                with pytest.raises(ValueError, match=message):
                    call()

    @given(periods, st.integers(2, 300))
    @settings(max_examples=100, deadline=None)
    def test_frequencies_are_those_of_fftfreq(self, T, S):
        grid = Grid(T, S)
        want = np.fft.fftfreq(S, d=grid.spacing)
        assert grid.frequencies().tobytes() == want.tobytes()
        some = np.arange(S)[::3]
        assert grid.frequencies(some).tobytes() == want[some].tobytes()

    def test_band_over_the_edge_with_its_bins_inside(self, rng, tmp_path):
        # [0, 1.07] holds bins 0..8 on T = 8, and 2*8 < 17, though 2*1.07*8 > 17
        grid = Grid(8.0, 17)
        E = periodic_comb(0.5, 1.0, (0.0, 8.0))
        assert grid.band_bins((0.0, 1.07)).tolist() == list(range(9))
        lam = ls_constant(E, (0.0, 1.07), grid).lambda_min
        assert lam == pytest.approx(0.1817, abs=1e-4)
        f = random_band_function(grid, rng, (0.0, 1.07))
        assert bernstein_ratio(f) <= TWO_PI  # the bins of [0, 1]: a unit band
        config = experiments.ExperimentConfig.from_dict({
            "version": 1, "kind": "ls_gamma_sweep", "output_dir": "out",
            "grid": {"period": 8.0, "samples": 17},
            "set": {"pattern": "comb", "gammas": [0.5], "delta": 1.0},
            "params": {"profile": {"band": [0.0, 1.07]}},
        })
        experiments.run(config, tmp_path)
        row = (tmp_path / "out" / "ls_gamma_sweep.csv").read_text().splitlines()[1]
        assert row.split(",")[1] == repr(lam)

    def test_bin_of_takes_the_same_nyquist_test(self):
        grid = Grid(8.0, 17)
        assert grid.bin_of(1.0) == 8  # the top of fftfreq
        assert np.isclose(grid.frequencies(), 1.0).sum() == 1
        with pytest.raises(ValueError, match="Nyquist"):
            grid.bin_of(-1.125)  # bin -9 aliases onto +1.0
        with pytest.raises(ValueError, match="Nyquist"):
            Grid(8.0, 16).bin_of(-1.0)  # the Nyquist bin -S/2

    def test_far_profile_refused_before_any_array(self, deadline):
        grid = Grid(8.0, 64)
        far = SpectralProfile(Sequence((4**60,)))
        E = ThickSet(((0.0, 8.0),), (0.0, 8.0))
        with deadline(1.0):
            for call in (lambda: grid.band_bins(far), lambda: ls_constant(E, far, grid),
                         lambda: grid.band_bins((0.0, 1e308))):
                with pytest.raises(ValueError, match="Nyquist"):
                    call()


class TestSpectralProfile:
    def test_disjointness_enforced(self):
        SpectralProfile(Sequence((4, 16, 64)))
        with pytest.raises(ValueError, match="overlap"):
            SpectralProfile(Sequence((4, 5)))

    def test_intervals(self):
        prof = SpectralProfile(Sequence((4, 16)))
        assert prof.intervals() == ((4, 5), (16, 17))
        assert Grid(2.0, 128).band_bins(prof).tolist() == [8, 9, 10, 32, 33, 34]


class TestSynthesize:
    def test_single_unimodular_term(self):
        g = Grid(1.0, 16)
        F = synthesize([[1.0]], Sequence((5,)), g)
        x = g.points()
        np.testing.assert_allclose(F.values, np.exp(2j * np.pi * 5 * x), atol=1e-12)
        assert F.norm_sq == pytest.approx(g.period, abs=1e-12)

    def test_disjoint_blocks_are_orthogonal(self, grid, rng):
        b1 = rng.standard_normal(17) + 1j * rng.standard_normal(17)
        b2 = rng.standard_normal(17) + 1j * rng.standard_normal(17)
        F = synthesize([b1, b2], Sequence((4, 16)), grid)
        f1 = synthesize([b1], Sequence((4,)), grid)
        f2 = synthesize([b2], Sequence((16,)), grid)
        assert F.norm_sq == pytest.approx(f1.norm_sq + f2.norm_sq, rel=1e-12)

    def test_leakage_within_declared_support(self, rng):
        g = Grid(16.0, 4096)
        blocks = [rng.standard_normal(17) + 1j * rng.standard_normal(17)
                  for _ in range(3)]
        F = synthesize(blocks, Sequence((4, 16, 64)), g)
        assert F.leakage() <= 1e-8
        declared = F.declared_support.intervals()
        for s in spectral_support(F, 1e-8):
            assert any(lo - 1e-9 <= s <= hi + 1e-9 for lo, hi in declared)

    def test_modulation_shifts_bins_exactly(self, grid, rng):
        block = rng.standard_normal(9) + 1j * rng.standard_normal(9)
        base = synthesize([block], Sequence((0,)), grid)
        shifted = synthesize([block], Sequence((16,)), grid)
        c0 = base.spectrum()
        c1 = shifted.spectrum()
        k = grid.bin_of(16)
        np.testing.assert_array_equal(np.roll(c0, k), c1)

    def test_off_grid_frequency_rejected(self, grid):
        with pytest.raises(ValueError, match="not on the grid"):
            synthesize([[1.0]], Sequence((4.3,)), grid)

    def test_nyquist_rejected(self):
        g = Grid(8.0, 32)  # S/T = 4, top usable frequency < 2
        with pytest.raises(ValueError, match="Nyquist"):
            synthesize([[1.0]], Sequence((8,)), g)

    def test_negative_anchor_needs_only_its_own_band_resolved(self):
        # [-1/2, 1/2] holds bins -4..4: Grid(8, 16) resolves them, not [0, 1]
        g = Grid(8.0, 16)
        F = synthesize([np.ones(9)], Sequence((-0.5,)), g)
        assert sorted(round(f * 8) for f in spectral_support(F)) == list(range(-4, 5))

    def test_block_addressing_outside_unit_band_rejected(self, grid):
        with pytest.raises(ValueError, match="outside"):
            synthesize([np.ones(40)], Sequence((4,)), grid)

    def test_plancherel_identity(self, grid, rng):
        F = synthesize(
            [rng.standard_normal(17) + 1j * rng.standard_normal(17)],
            Sequence((4,)),
            grid,
        )
        total = grid.period * float(np.sum(np.abs(F.spectrum()) ** 2))
        assert F.norm_sq == pytest.approx(total, rel=1e-10)

    def test_blocks_filling_a_shared_bin_refused(self):
        # 2.0000000001 * 8 is bin 16 within the snap tolerance, so [1, 2] and
        # [2.0000000001, 3.0000000001] both hold bin 16; adding both blocks'
        # coefficients into it made head^2 + tail^2 of the split 0.957, not 1
        grid = Grid(8.0, 1024)
        seq = Sequence((1, 2.0000000001))
        assert [grid.band_bins((lam, lam + 1)).tolist() for lam in seq.values] == [
            list(range(8, 17)), list(range(16, 25))]
        message = (r"^bands \[1, 1 \+ 1\] and \[2.0000000001, 2.0000000001 \+ 1\] share bin 16 "
                   r"at T = 8.0, and both blocks fill it$")
        with pytest.raises(ValueError, match=message):
            synthesize([np.ones(9), np.ones(9)], seq, grid)
        with pytest.raises(ValueError, match=message):
            theorem_split_check([np.ones(9), np.ones(9)], seq, TailSchedule.constant(2), 1,
                                periodic_comb(0.5, 1.0, (0.0, 8.0)), grid)
        blocks = [np.ones(8), np.ones(9)]  # the first block stops short of bin 16
        assert synthesize(blocks, seq, grid).bins.tolist() == list(range(8, 25))
        split = theorem_split_check(blocks, seq, TailSchedule.constant(2), 1,
                                    periodic_comb(0.5, 1.0, (0.0, 8.0)), grid)
        assert split.ratio_head ** 2 + split.ratio_tail ** 2 == pytest.approx(1.0, abs=1e-15)


class TestSpectralSupport:
    def test_pure_frequency(self, grid):
        f = pure_frequency(grid, 5.0)
        assert spectral_support(f, 1e-8) == {5.0}

    def test_zero_function(self, grid):
        f = BandFunction(grid, [], [])
        assert spectral_support(f, 1e-8) == set()

    def test_tolerance_outside_the_unit_interval_refused(self, grid):
        # -1 counted every bin active, and nan, inf and 2 none
        f = pure_frequency(grid, 5.0)
        assert spectral_support(f, 0.0) == {5.0}
        for tol in (-1.0, math.nan, math.inf, 1.0, 2.0):
            with pytest.raises(ValueError, match=rf"^tol {tol} is outside \[0, 1\)$"):
                spectral_support(f, tol)


class TestBandFunction:
    def test_leakage_guard_rejects_mismatch(self, grid):
        vals = np.exp(2j * np.pi * 5.0 * grid.points())
        with pytest.raises(ValueError, match="outside the declared support"):
            from_values(grid, vals, (0.0, 1.0))

    def test_spectrum_is_kept_read_only(self, grid, rng):
        c = np.zeros(grid.samples, dtype=complex)
        c[:17] = rng.standard_normal(17) + 1j * rng.standard_normal(17)
        built_from = c.tobytes()
        f = BandFunction.from_spectrum(grid, c, (0.0, 1.0))
        kept = f.spectrum()
        assert kept.tobytes() == built_from
        assert f.spectrum() is kept
        with pytest.raises(ValueError):
            kept[0] = 0
        c[:] = 1.0  # the caller's array is not the function's
        assert f.spectrum().tobytes() == built_from

    def test_values_agree_with_the_kept_spectrum(self, grid, rng):
        blocks = [rng.standard_normal(17) + 1j * rng.standard_normal(17) for _ in range(2)]
        for f in (random_band_function(grid, rng), synthesize(blocks, Sequence((4, 16)), grid)):
            np.testing.assert_allclose(np.fft.fft(f.values) / grid.samples, f.spectrum(),
                                       rtol=0, atol=1e-12)

    def test_construction_from_coefficients_runs_no_forward_fft(self, grid, rng, monkeypatch):
        def no_fft(*args, **kwargs):
            raise AssertionError("forward FFT called")

        monkeypatch.setattr(np.fft, "fft", no_fft)
        c = np.zeros(grid.samples, dtype=complex)
        c[:17] = 1.0
        f = BandFunction.from_spectrum(grid, c, (0.0, 1.0))
        assert f.leakage() == 0.0
        assert BandFunction(grid, [3, 1, 3], [1.0, 2.0, -1.0], (0.0, 1.0)).bins.tolist() == [1]
        random_band_function(grid, rng)
        synthesize([np.ones(17), np.ones(17)], Sequence((4, 16)), grid)

    def test_values_from_coefficients_are_made_on_first_read(self, grid, rng, monkeypatch):
        transforms = []

        def counted_ifft(a, *args, **kwargs):
            transforms.append(np.size(a))
            return ifft(a, *args, **kwargs)

        def no_fft(*args, **kwargs):
            raise AssertionError("forward FFT called")

        ifft = np.fft.ifft
        monkeypatch.setattr(np.fft, "ifft", counted_ifft)
        monkeypatch.setattr(np.fft, "fft", no_fft)
        blocks = [rng.standard_normal(17) + 1j * rng.standard_normal(17) for _ in range(2)]
        built = [random_band_function(grid, rng), synthesize(blocks, Sequence((4, 16)), grid),
                 BandFunction.from_spectrum(grid, np.ones(grid.samples))]
        assert transforms == []  # construction transforms nothing
        for f in built:
            v = f.values
            assert v.tobytes() == (ifft(f.spectrum()) * grid.samples).tobytes()
            assert f.values is v
            with pytest.raises(ValueError):
                v[0] = 0
        assert transforms == [grid.samples] * 3  # once per function

    def test_corrupted_coefficients_refused_before_any_value_is_made(self, grid, monkeypatch):
        def no_transform(*args, **kwargs):
            raise AssertionError("FFT called")

        monkeypatch.setattr(np.fft, "ifft", no_transform)
        monkeypatch.setattr(np.fft, "fft", no_transform)
        c = np.zeros(grid.samples, dtype=complex)
        c[:17] = 1.0
        c[40] = 1.0  # frequency 2.5, outside [0, 1]
        with pytest.raises(ValueError, match="outside the declared support"):
            BandFunction.from_spectrum(grid, c, (0.0, 1.0))

    def test_functions_with_unread_values_replace_and_print(self, grid, rng):
        f = random_band_function(grid, rng)
        g = dataclasses.replace(f, declared_support=(0.0, 2.0))
        assert g.declared_support == (0.0, 2.0)
        np.testing.assert_array_equal(g.values, f.values)
        with pytest.raises(ValueError, match="outside the declared support"):
            dataclasses.replace(f, declared_support=(4.0, 5.0))  # replace checks anew
        h = random_band_function(grid, rng)
        with no_transform():
            assert repr(h).startswith(
                "BandFunction(grid=Grid(period=16.0, samples=1024), bins=array([ 0,  1,  2,")
        assert "values" not in vars(h)
        with pytest.raises(AttributeError, match="no attribute 'missing'"):
            h.missing

    def test_pickle_round_trip_keeps_the_fields_alone(self, grid, rng):
        f = random_band_function(grid, rng)
        values = f.values  # read, so that there is something the pickle leaves out
        with no_transform():
            back = pickle.loads(pickle.dumps(f))
        assert (back.grid, back.declared_support) == (f.grid, f.declared_support)
        assert back.bins.tobytes() == f.bins.tobytes()
        assert back.coeffs.tobytes() == f.coeffs.tobytes()
        assert not back.bins.flags.writeable and not back.coeffs.flags.writeable
        assert "values" not in vars(back)
        assert back.values.tobytes() == values.tobytes()

    @pytest.mark.parametrize("bins, coeffs, message", [
        ([1024], [1.0], r"^bins must be integer FFT-order indices in \[0, 1024\)$"),
        ([0, -1], [1.0, 1.0], r"^bins must be integer FFT-order indices in \[0, 1024\)$"),
        ([0.5], [1.0], r"^bins must be integer FFT-order indices in \[0, 1024\)$"),
        ([0, 1], [1.0], r"^bins and coeffs must be one-dimensional and of one length, "
                        r"got shapes \(2,\) and \(1,\)$"),
        ([[0, 1]], [[1.0, 2.0]], r"got shapes \(1, 2\) and \(1, 2\)$"),
        (3, 1.0, r"got shapes \(\) and \(\)$"),
    ])
    def test_malformed_bins_refused(self, grid, bins, coeffs, message):
        with pytest.raises(ValueError, match=message):
            BandFunction(grid, bins, coeffs)

    @pytest.mark.parametrize("share, refused", [(1e-6, True), (0.999 * LEAKAGE_TOL, False)])
    def test_leakage_tolerance(self, grid, share, refused):
        # 17 unit coefficients on [0, 1] and one at frequency 2.5 carrying `share` of the mass
        bins = [*range(17), 40]
        coeffs = [1.0] * 17 + [math.sqrt(17 * share / (1 - share))]
        message = (rf"^spectral mass {share:.3e} outside the declared support "
                   rf"exceeds the tolerance {LEAKAGE_TOL}$")
        if refused:
            with pytest.raises(ValueError, match=message):
                BandFunction(grid, bins, coeffs, (0.0, 1.0))
        else:
            f = BandFunction(grid, bins, coeffs, (0.0, 1.0))
            assert f.leakage() == pytest.approx(share, rel=1e-12)

    def test_declared_support_past_nyquist_is_refused(self):
        # [0, 100] holds bins 0..100, which a 64-sample grid does not resolve
        grid = Grid(1.0, 64)
        with pytest.raises(ValueError, match=r"^Nyquist violation: bin 100 needs 2\|k\| < S = 64 "):
            BandFunction.from_spectrum(grid, np.ones(64), (0.0, 100.0))

    def test_bin_past_the_band_leaks(self):
        # 10*T is 1e-9 short of 80: [10, 11] holds bins 80..87, so bin 88 is outside
        grid = Grid(7.9999999999, 256)
        assert grid.band_bins((10.0, 11.0)).tolist() == list(range(80, 88))
        with pytest.raises(ValueError, match="^spectral mass 1.111e-01 outside"):
            BandFunction(grid, np.arange(80, 89), np.ones(9), (10.0, 11.0))

    def test_values_are_frozen(self, grid):
        f = pure_frequency(grid, 1.0)
        with pytest.raises(ValueError):
            f.values[0] = 0


def scan_mask(grid, support):
    """Oracle: whether each FFT index holds a bin of the support, by scan_bins."""
    return np.isin(signed_bins(grid.samples), scan_bins(support_intervals(support), grid.period))


def mask_leakage(f):
    mass = np.abs(f.spectrum()) ** 2
    total = mass.sum()
    if total == 0:
        return 0.0
    return float(mass[~scan_mask(f.grid, f.declared_support)].sum() / total)


class TestLeakage:
    @given(periods, st.integers(2, 256), st.one_of(bands, profiles),
           st.sampled_from(["dense", "sparse", "inside", "edges"]), st.booleans(),
           st.integers(0, 2**32 - 1))
    @example(7.9999999999, 256, (10.0, 11.0), "edges", True, 0)  # bins 79 and 88 leak
    @settings(max_examples=300, deadline=None)
    def test_matches_the_full_mask(self, T, S, support, spread, from_spectrum, seed):
        grid = Grid(T, S)
        declared = scan_bins(support_intervals(support), T)
        assume(declared and 2 * max(abs(k) for k in declared) < S)  # refusals: TestBandBins
        rng = np.random.default_rng(seed)
        c = rng.standard_normal(S) + 1j * rng.standard_normal(S)
        if spread == "sparse":
            c[rng.random(S) > 0.1] = 0
        elif spread == "inside":
            c[~scan_mask(grid, support)] = 0
        elif spread == "edges":  # the declared bins and the two bins just past them
            c[~np.isin(signed_bins(S), declared + [declared[0] - 1, declared[-1] + 1])] = 0
        if from_spectrum:
            f = BandFunction.from_spectrum(grid, c)
        else:
            f = from_values(grid, np.fft.ifft(c) * S)
        object.__setattr__(f, "declared_support", support)  # declared after the check: any leakage
        want = mask_leakage(f)
        assert f.leakage() == pytest.approx(want, rel=1e-15, abs=0)
        if spread == "inside" and from_spectrum:
            assert f.leakage() == 0.0 and want == 0.0


def dense_leakage(grid, c, support):
    """Oracle: the leakage of the dense spectrum c, computed over all S bins
    as construction did before a function kept only its nonzero bins."""
    mass = np.abs(c) ** 2
    total = mass.sum()
    if total == 0:
        return 0.0
    band = grid.band_bins(support) if support is not None else np.empty(0, np.int64)
    bins = np.flatnonzero(mass)
    signed = grid.signed_bins(bins)
    inside = np.searchsorted(band, signed, "right") > np.searchsorted(band, signed)
    return float(mass[bins[~inside]].sum() / total)


def assert_is_the_dense_build(build, grid, c, support):
    """``build()`` accepts or refuses as the dense build of the coefficients c
    did, with the same message; accepted, it keeps the nonzero bins of c,
    sorted and read-only, its spectrum and values are the dense ones bit for
    bit and its leakage agrees to 1e-15."""
    try:
        leak = dense_leakage(grid, c, support)
        if support is not None and leak > LEAKAGE_TOL:
            raise ValueError(f"spectral mass {leak:.3e} outside the declared support "
                             f"exceeds the tolerance {LEAKAGE_TOL}")
    except ValueError as exc:
        with pytest.raises(ValueError) as refused:
            build()
        assert str(refused.value) == str(exc)
        return
    f = build()
    assert f.bins.dtype == np.int64 and f.bins.tolist() == np.flatnonzero(c).tolist()
    assert f.coeffs.tobytes() == c[f.bins].tobytes()
    assert not f.bins.flags.writeable and not f.coeffs.flags.writeable
    assert f.spectrum().tobytes() == c.tobytes()
    assert f.values.tobytes() == (np.fft.ifft(c) * grid.samples).tobytes()
    assert f.leakage() == pytest.approx(leak, rel=1e-15, abs=0)


def dense_on_window(f, J):
    """Oracle: f and f' on the samples J from the dense spectrum, as they
    were computed before a function kept its bins."""
    grid, c = f.grid, f.spectrum()
    S = grid.samples
    bins = np.flatnonzero(c)
    if J.size * bins.size > S:
        dc = c * (2j * np.pi * grid.frequencies())
        return f.values[J], (np.fft.ifft(dc) * S)[J]
    phases = np.exp((2j * np.pi / S) * ((J[:, None] * bins) % S))
    coeffs = c[bins]
    return phases @ coeffs, phases @ (coeffs * (2j * np.pi * grid.frequencies(bins)))


coefficients = st.one_of(
    st.complex_numbers(max_magnitude=1e6, allow_nan=False, allow_infinity=False),
    st.sampled_from([0j, complex(-0.0, 0.0), complex(-0.0, 1.0), complex(1e-170, 0.0)]),
)


class TestSparseAgainstDense:
    """A function keeps its nonzero bins and their coefficients; the dense
    length-S construction it replaced is the oracle."""

    @given(periods, st.integers(2, 48), st.one_of(st.none(), bands, profiles), st.data())
    @settings(max_examples=300, deadline=None)
    def test_bins_build_the_dense_function(self, T, S, support, data):
        grid = Grid(T, S)
        near = scan_bins(support_intervals(support), T) if support is not None else []
        index = st.one_of(st.integers(0, S - 1), st.sampled_from([k % S for k in near] or [0]))
        pairs = data.draw(st.lists(st.tuples(index, coefficients), max_size=2 * S))
        bins = np.array([k for k, _ in pairs], dtype=np.int64)
        coeffs = np.array([x for _, x in pairs], dtype=complex)
        c = np.zeros(S, dtype=complex)
        for k, x in zip(bins, coeffs):  # repeated bins add up, in order
            c[k] += x
        assert_is_the_dense_build(lambda: BandFunction(grid, bins, coeffs, support),
                                  grid, c, support)
        assert_is_the_dense_build(lambda: BandFunction.from_spectrum(grid, c, support),
                                  grid, c, support)

    @given(periods, st.integers(2, 64), st.integers(-8, 8),
           st.lists(st.integers(0, 6), max_size=3), st.data())
    @example(1.0, 16, 0, [], None)  # frequencies 0 and 1 + 1e-12: both blocks fill bin 1
    @settings(max_examples=300, deadline=None)
    def test_synthesize_builds_the_dense_function(self, T, S, k0, steps, data):
        grid = Grid(T, S)
        if data is None:
            seq = Sequence((0.0, 1 + 1e-12))
        else:  # on-grid anchors k/T, more than 1 apart, from none to all of them
            ks = list(accumulate((math.floor(T) + 1 + e for e in steps), initial=k0))
            seq = Sequence(tuple(k / T for k in ks[: data.draw(st.integers(0, len(ks)))]))
        try:  # the checks of synthesize, in its order
            SpectralProfile(seq)  # k/T anchors more than 1 apart can round to a gap of 1.0
            widths = []
            for lam in seq.values:
                grid.bin_of(lam)
                widths.append(grid.band_bins((lam, lam + 1)).size)
        except ValueError as exc:  # refused alike
            with pytest.raises(ValueError, match=re.escape(str(exc))):
                synthesize([[1.0]] * len(seq), seq, grid)
            return
        if data is None:
            blocks = [np.arange(1, w + 1) * (1 - 1j) for w in widths]
        else:
            blocks = [np.array(data.draw(st.lists(coefficients, max_size=w)), dtype=complex)
                      for w in widths]
        filled = [k for lam, block in zip(seq.values, blocks)
                  for k in grid.band_bins((lam, lam + 1))[: len(block)].tolist()]
        shared = [k for k in filled if filled.count(k) > 1]
        if data is None:
            assert shared == [1, 1]
        if shared:  # two blocks fill one bin: refused, not added up
            with pytest.raises(ValueError, match=rf"share bin {shared[0]} at T = {re.escape(str(T))}, "
                                                 r"and both blocks fill it$"):
                synthesize(blocks, seq, grid)
            return
        c = np.zeros(S, dtype=complex)
        for lam, block in zip(seq.values, blocks):
            c[grid.band_bins((lam, lam + 1))[: len(block)] % S] += block
        assert_is_the_dense_build(lambda: synthesize(blocks, seq, grid), grid, c,
                                  SpectralProfile(seq))

    def test_synthesize_refuses_anchors_whose_gap_rounds_to_one(self):
        T = 11.999999999999998  # 14/T - 2/T is 1.0 in floating point, not above it
        seq = Sequence((2 / T, 14 / T))
        with pytest.raises(ValueError, match="profile intervals overlap: gap 1.0"):
            synthesize([[1.0], [1.0]], seq, Grid(T, 2))

    @given(periods, st.integers(2, 300), bands, st.booleans(), st.integers(0, 2**32 - 1))
    @settings(max_examples=200, deadline=None)
    def test_random_band_function_and_window_values_are_the_dense_ones(
            self, T, S, band, include_right, seed):
        grid = Grid(T, S)
        try:
            f = random_band_function(grid, np.random.default_rng(seed), band,
                                     include_right=include_right)
        except ValueError:
            assume(False)
        bins = grid.band_bins(band)
        if not include_right and abs(bins[-1] - band[1] * T) <= SNAP:
            bins = bins[:-1]
        rng = np.random.default_rng(seed)
        c = np.zeros(S, dtype=complex)
        c[bins % S] = rng.standard_normal(bins.size) + 1j * rng.standard_normal(bins.size)
        assert_is_the_dense_build(lambda: f, grid, c, tuple(band))
        for start, stop in ((0, 1), (0, S // 8 + 1), (S // 3, S)):  # direct sums and FFTs
            J = np.arange(start, stop)
            got = (f.values[J], f.derivative().values[J])
            for a, b in zip(got, dense_on_window(f, J)):
                np.testing.assert_allclose(a, b, rtol=0, atol=1e-12 * max(1.0, np.abs(b).max()))


class TestPoisson:
    def test_zero_frequency_coefficient_unchanged(self, grid, rng):
        f = random_band_function(grid, rng)
        c_before = f.spectrum()[0]
        c_after = poisson_transform(f).spectrum()[0]
        assert c_after == pytest.approx(c_before, rel=1e-12)

    def test_contraction(self, grid, rng):
        for _ in range(5):
            f = random_band_function(grid, rng)
            assert poisson_transform(f).norm <= f.norm * (1 + 1e-12)

    def test_unit_indicator_spectrum_oracle(self):
        # hat g = 1 on [0, 1] sampled at bins k/T: the transform's squared
        # norm over T^2 is a Riemann sum of the closed form
        # integral of e^{-2 xi} over [0, 1] = (1 - e^{-2}) / 2,
        # whose left-endpoint error is below 2/T.
        T = 256
        g_grid = Grid(float(T), 4096)
        c = np.zeros(4096, dtype=complex)
        c[: T + 1] = 1.0
        g = BandFunction.from_spectrum(g_grid, c, (0.0, 1.0))
        val = poisson_transform(g).norm_sq / T**2
        exact = (1 - math.exp(-2)) / 2
        assert val == pytest.approx(exact, abs=2.0 / T)

    def test_commutes_with_modulation(self, grid, rng):
        block = rng.standard_normal(17) + 1j * rng.standard_normal(17)
        g0 = synthesize([block], Sequence((0,)), grid)
        lam = 16
        modulated = synthesize([block], Sequence((lam,)), grid)
        lhs = poisson_transform(modulated).spectrum()
        ghat = g0.spectrum()
        freqs = grid.frequencies()
        k = grid.bin_of(lam)
        rhs = np.exp(-np.abs(freqs)) * np.roll(ghat, k)
        np.testing.assert_allclose(lhs, rhs, atol=1e-12)

    def test_preserves_declared_support(self, grid, rng):
        f = random_band_function(grid, rng, band=(0.0, 1.0))
        assert poisson_transform(f).declared_support == f.declared_support


class TestBernstein:
    def test_pure_top_frequency_attains_bound(self, grid):
        f = pure_frequency(grid, 1.0, (0.0, 1.0))
        assert bernstein_ratio(f) == pytest.approx(TWO_PI, abs=1e-10)

    def test_constant_function(self, grid):
        f = pure_frequency(grid, 0.0, (0.0, 1.0))
        assert bernstein_ratio(f) == 0.0

    def test_random_band_functions_below_bound(self, grid, rng):
        for _ in range(200):
            f = random_band_function(grid, rng)
            assert bernstein_ratio(f) <= TWO_PI + 1e-9

    def test_zero_function_rejected(self, grid):
        f = BandFunction(grid, [], [], (0.0, 1.0))
        with pytest.raises(ValueError, match="zero function"):
            bernstein_ratio(f)

    def test_support_outside_unit_band_rejected(self, grid):
        f = pure_frequency(grid, 4.0, (4.0, 5.0))
        with pytest.raises(ValueError, match="leaves"):
            bernstein_ratio(f)

    @pytest.mark.parametrize("T, S, band, accepted", [
        (8.0, 17, (0.0, 1.07), True),       # bins 0..8: those of [0, 1]
        (8.0, 64, (0.0, 1.2), False),       # bin 9 is past them
        (8.0, 64, (-0.1, 1.0), True),       # bin -0.8 is no bin
        (8.0, 64, (-0.125, 1.0), False),    # bin -1
        (8.0, 16, (0.0, 0.5), True),        # [0, 1] itself reaches the Nyquist bin 8
        (7.9999999999, 64, (0.0, 1.0), True),
    ])
    def test_unit_band_is_judged_on_the_bins(self, T, S, band, accepted):
        grid = Grid(T, S)
        f = random_band_function(grid, np.random.default_rng(0), band)
        points = np.arange(int(T))
        for ratio in (lambda: bernstein_ratio(f), lambda: plancherel_polya_ratio(f, points, 1.0)):
            if accepted:
                assert math.isfinite(ratio())
            else:
                with pytest.raises(ValueError, match=r"\(bins -?\d+\.\.\d+\) leaves \[0, 1\]$"):
                    ratio()


class TestPlancherelPolya:
    def test_full_integer_grid_is_parseval(self, rng):
        g = Grid(64.0, 512)
        h = random_band_function(g, rng, include_right=False)
        ratio = plancherel_polya_ratio(h, np.arange(64), 1.0)
        assert ratio == pytest.approx(1.0, abs=1e-8)

    def test_subset_ratio_at_most_one(self, rng):
        g = Grid(64.0, 512)
        h = random_band_function(g, rng, include_right=False)
        sub = plancherel_polya_ratio(h, np.arange(0, 32), 1.0)
        assert sub <= 1.0 + 1e-12

    def test_ratio_grows_to_one_with_coverage(self, rng):
        g = Grid(64.0, 512)
        h = random_band_function(g, rng, include_right=False)
        ratios = [
            plancherel_polya_ratio(h, np.arange(k), 1.0) for k in (8, 24, 48, 64)
        ]
        assert ratios == sorted(ratios)
        assert ratios[-1] == pytest.approx(1.0, abs=1e-8)

    def test_counterexample_difference_set_parts(self, rng):
        # split the difference set into separated parts and record that each
        # part's sampling ratio is finite; no analytic constant is asserted
        g = Grid(64.0, 1024)
        h = random_band_function(g, rng, include_right=False)
        diffs = [float(d) for d in difference_set(build_counterexample(3))]
        parts = split_uniformly_discrete(diffs, 1.0)
        for part in parts:
            r = plancherel_polya_ratio(h, part, 1.0)
            assert math.isfinite(r) and r >= 0

    def test_separation_validated(self, rng):
        g = Grid(64.0, 512)
        h = random_band_function(g, rng, include_right=False)
        with pytest.raises(ValueError, match="delta must be positive"):
            plancherel_polya_ratio(h, [0.0, 2.0], 0.0)
        with pytest.raises(ValueError, match="uniformly discrete"):
            plancherel_polya_ratio(h, [0.0, 0.5], 1.0)


class TestSplitUniformlyDiscrete:
    def test_parts_are_separated(self):
        diffs = [float(d) for d in difference_set(build_counterexample(4))]
        parts = split_uniformly_discrete(diffs, 1.0)
        for part in parts:
            assert all(b - a >= 1.0 for a, b in zip(part, part[1:]))
        assert sorted(v for p in parts for v in p) == sorted(diffs)

    def test_part_count_bounded_by_collision_count(self):
        # every point has at most N-1 others within the threshold, where N is
        # the collision count of the underlying sequence; N parts suffice
        from lacspec.sequences import zygmund_constant

        seq = build_counterexample(4)
        n_collisions = zygmund_constant(seq, 1).constant
        diffs = [float(d) for d in difference_set(seq)]
        parts = split_uniformly_discrete(diffs, 1.0)
        assert len(parts) <= n_collisions + 1

    def test_delta_validated(self):
        with pytest.raises(ValueError):
            split_uniformly_discrete([1.0, 2.0], -1.0)


def band_rule(grid, support):
    """Oracle: the band rule written out apart from ``Grid.band_bins``."""
    T, profile = grid.period, isinstance(support, SpectralProfile)
    bands = support.intervals() if profile else (support,)
    for lo, hi in bands:
        if any(math.isnan(x) or math.isinf(x) for x in (lo, hi) if isinstance(x, float)):
            raise ValueError(f"band ({lo}, {hi}) has a non-finite edge")
    try:
        ends = [(math.ceil(lo * T - FREQ_SNAP_TOL), math.floor(hi * T + FREQ_SNAP_TOL))
                for lo, hi in bands]
    except OverflowError:
        raise ValueError("Nyquist violation: band edge times T overflows a float") from None
    ends = [(a, b) for a, b in ends if a <= b]
    if not ends:
        raise ValueError(f"{'profile' if profile else 'band'} holds no grid frequencies")
    grid._check_bin(max(max(-a, b) for a, b in ends))
    starts = [ends[0][0]] + [b + 1 for _, b in ends[:-1]]
    return np.concatenate([np.arange(max(a, s), b + 1, dtype=np.int64)
                           for (a, b), s in zip(ends, starts)])


def outcome(call):
    try:
        return call()
    except (ValueError, TypeError) as exc:
        return type(exc), str(exc)


# numbers that compare equal across types, and some that are refused
typed_edges = st.one_of(
    st.integers(-6, 6).flatmap(lambda k: st.sampled_from([k, float(k), Fraction(k)])),
    st.integers(-48, 48).flatmap(lambda k: st.sampled_from([k / 8, Fraction(k, 8)])),
    st.floats(-4, 4),
    st.sampled_from([math.nan, math.inf, -math.inf, 1e308, 10**400, True, False]),
)
typed_bands = st.one_of(
    st.tuples(typed_edges, typed_edges),
    st.lists(typed_edges, min_size=2, max_size=2),
    st.lists(typed_edges, min_size=0, max_size=3),  # the wrong length: refused
)
typed_profiles = st.tuples(
    st.sampled_from([0, 0.0, Fraction(0), -3, 1.5, Fraction(5, 4)]),
    st.lists(st.sampled_from([2, 2.0, Fraction(2), 3.5, Fraction(7, 3)]), max_size=2),
).map(lambda t: SpectralProfile(Sequence(tuple(accumulate(t[1], initial=t[0])))))
# malformed supports, refused alike; the edges [0] and [1] are lists
typed_supports = st.one_of(typed_bands, typed_profiles,
                           st.sampled_from([None, 3, "ab", ([0], [1])]))
typed_grids = st.tuples(st.sampled_from([8, 8.0, 2.5, 7.9999999999, 1.0, Fraction(3)]),
                        st.sampled_from([2, 16, 64, 1024]))


class TestBandMemo:
    """``Grid.band_bins`` against the ``band_rule`` oracle."""

    @given(typed_grids, typed_supports)
    @example((8, 64), (0, 1))
    @example((8.0, 64), [0.0, 1.0])
    @example((8.0, 64), (Fraction(0), Fraction(1)))
    @example((8.0, 64), (False, True))
    @settings(max_examples=400, deadline=None)
    def test_memo_is_the_rule(self, shape, support):
        grid = Grid(*shape)
        want = outcome(lambda: band_rule(grid, support))
        got = outcome(lambda: grid.band_bins(support))
        if isinstance(want, np.ndarray):
            assert isinstance(got, np.ndarray) and got.dtype == np.int64
            assert got.tolist() == want.tolist()
            assert not got.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                got[...] = 0
        else:
            assert got == want  # the same refusal

    def test_a_band_read_from_json_is_the_band_of_its_tuple(self):
        grid = Grid(16.0, 1024)
        band = json.loads("[0.25, 1.5]")
        assert grid.band_bins(band).tolist() == grid.band_bins((0.25, 1.5)).tolist()
        f = random_band_function(grid, np.random.default_rng(3), band)
        assert f.leakage() == 0.0

    def test_memo_is_bounded(self):
        widest = Grid(1.0, 2**16).band_bins((-32767.0, 32767.0))  # 2|k| < S on every bin
        assert widest.size == 2**16 - 1
        with pytest.raises(ValueError, match="Nyquist"):
            Grid(1.0, 2**16).band_bins((-32768.0, 0.0))
        wide = Grid(4096.0, 2**20).band_bins((0.0, 100.0))  # 409601 bins
        assert wide.size == 409601 and not wide.flags.writeable
