import math
from fractions import Fraction
from itertools import accumulate

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from lacspec.concentration import (
    CellQuadrature,
    HermitianForm,
    LemmaTerms,
    gram_matrix,
    hermitian_eigensystem,
    interval_phase_integral,
    lemma_main_report,
    ls_constant,
    nazarov_constant,
    theorem_split_check,
)
from lacspec.errors import NumericalError
from lacspec.experiments import lemma_trials, split_trials
from lacspec.sequences import Sequence, TailSchedule, build_counterexample
from lacspec.sets import ThickSet, periodic_comb
from lacspec.synthesis import (
    BandFunction,
    Grid,
    SpectralProfile,
    random_band_function,
    synthesize,
)


def from_values(grid, values, support=None):
    """The function of the samples ``values``: its dense spectrum, FFT noise
    and all, as a function built from samples has."""
    return BandFunction.from_spectrum(grid, np.fft.fft(values) / grid.samples, support)


def quad_phase_integral(a, b, d):
    # quad's default epsabs (1.5e-8) is looser than the 1e-9 the tests ask
    tol = dict(limit=200, epsabs=1e-13, epsrel=1e-13)
    re, _ = quad(lambda x: math.cos(2 * math.pi * d * x), a, b, **tol)
    im, _ = quad(lambda x: math.sin(2 * math.pi * d * x), a, b, **tol)
    return complex(re, im)


def random_torus_set(rng, pieces=3):
    cuts = np.sort(rng.uniform(0, 1, size=2 * pieces))
    intervals = tuple((cuts[2 * i], cuts[2 * i + 1]) for i in range(pieces))
    return ThickSet(intervals, (0.0, 1.0))


class TestIntervalIntegral:
    def test_matches_adaptive_quadrature(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            a = rng.uniform(0, 0.6)
            b = a + rng.uniform(0.01, 0.4)
            d = rng.uniform(-40, 40)
            assert abs(
                interval_phase_integral(a, b, d) - quad_phase_integral(a, b, d)
            ) < 1e-9

    def test_zero_frequency_is_length(self):
        assert interval_phase_integral(0.25, 0.75, 0) == 0.5

    def test_exact_zero_at_integer_cycle_counts(self):
        for k in (1, 2, 7, 100):
            assert interval_phase_integral(0.0, 1.0, k) == 0.0


class TestGramMatrix:
    @given(
        st.integers(2**53, 2**80),
        st.lists(st.integers(0, 2**12), min_size=1, max_size=12, unique=True),
    )
    @example(-8, list(range(16)))
    @settings(max_examples=40, deadline=None)
    def test_full_torus_is_identity(self, base, offsets):
        # integer frequencies past 2**53 must be differenced before rounding
        seq = Sequence(tuple(base + k for k in sorted(offsets)))
        G = gram_matrix(ThickSet(((0.0, 1.0),), (0.0, 1.0)), seq)
        np.testing.assert_array_equal(G.entries, np.eye(len(seq)))

    def test_two_by_two_half_torus(self):
        # entries checked against adaptive quadrature of the defining
        # integral: the off-diagonal at d = -1 is -i/pi
        E = ThickSet(((0.0, 0.5),), (0.0, 1.0))
        G = gram_matrix(E, Sequence((0, 1)))
        oracle = quad_phase_integral(0.0, 0.5, -1)
        assert abs(G.entries[0, 1] - oracle) < 1e-12
        assert G.entries[0, 1] == pytest.approx(-1j / math.pi, abs=1e-12)
        assert G.entries[0, 0] == pytest.approx(0.5, abs=1e-15)

    @given(
        st.lists(
            st.tuples(st.floats(0, 1), st.floats(0, 1)).map(sorted),
            min_size=1,
            max_size=3,
        ),
        st.one_of(
            st.lists(st.integers(-20, 20), min_size=1, max_size=4, unique=True),
            st.lists(st.floats(-20, 20), min_size=1, max_size=4, unique=True),
        ),
    )
    @example([[0.0, 0.5]], [0.0, 5e-324])  # d*width underflows to 0: the limit is 0.5
    @settings(max_examples=40, deadline=None)
    def test_entries_match_quadrature_on_random_sets(self, intervals, freqs):
        E = ThickSet(tuple(intervals), (0.0, 1.0))
        assume(E.measure > 0)
        seq = Sequence(tuple(sorted(freqs)))
        G = gram_matrix(E, seq)
        for i, li in enumerate(seq.values):
            for j, lj in enumerate(seq.values):
                oracle = sum(
                    quad_phase_integral(a, b, li - lj) for a, b in E.intervals
                )
                assert abs(G.entries[i, j] - oracle) < 1e-9

    def test_hermitian_psd(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            E = random_torus_set(rng)
            seq = Sequence(tuple(sorted(rng.choice(50, 6, replace=False))))
            G = gram_matrix(E, seq)
            vals = np.linalg.eigvalsh(G.entries)
            assert vals[0] > -1e-12

    def test_empty_set_rejected(self):
        with pytest.raises(ValueError, match="positive measure"):
            gram_matrix(ThickSet((), (0.0, 1.0)), Sequence((0, 1)))

    def test_off_torus_rejected(self):
        E = ThickSet(((0.0, 2.0),), (0.0, 2.0))
        with pytest.raises(ValueError, match="unit torus"):
            gram_matrix(E, Sequence((0, 1)))

    def test_scaling_covariance(self):
        # shrinking the set by s while stretching the frequencies by s is the
        # change of variables x -> s x: the Gram matrix picks up exactly 1/s
        E = ThickSet(((0.1, 0.3), (0.5, 0.8)), (0.0, 1.0))
        seq = Sequence((0.0, 1.0, 3.0, 7.0))
        G = gram_matrix(E, seq)
        half = ThickSet(tuple((a / 2, b / 2) for a, b in E.intervals), (0.0, 1.0))
        doubled = Sequence(tuple(2 * v for v in seq))
        G2 = gram_matrix(half, doubled)
        np.testing.assert_allclose(2 * G2.entries, G.entries, atol=1e-12)

    def test_text_roundtrip(self, tmp_path):
        E = ThickSet(((0.0, 0.5),), (0.0, 1.0))
        G = gram_matrix(E, Sequence((0, 1, 3)))
        path = tmp_path / "gram.txt"
        G.to_text(path)
        H = HermitianForm.from_text(path)
        np.testing.assert_array_equal(H.entries, G.entries)

    def test_non_hermitian_rejected(self):
        with pytest.raises(ValueError, match="Hermitian"):
            HermitianForm(2, np.array([[1.0, 1.0], [0.0, 1.0]]), {})


class TestNazarovConstant:
    def test_full_torus_gives_one(self):
        E = ThickSet(((0.0, 1.0),), (0.0, 1.0))
        est = nazarov_constant(E, Sequence((0, 3, 9)))
        assert est.lambda_min == pytest.approx(1.0, abs=1e-10)
        assert est.constant_C == pytest.approx(1.0, abs=1e-10)

    def test_half_torus_closed_form(self):
        E = ThickSet(((0.0, 0.5),), (0.0, 1.0))
        est = nazarov_constant(E, Sequence((0, 1)))
        assert est.lambda_min == pytest.approx(0.5 - 1 / math.pi, abs=1e-10)

    def test_monotone_under_set_inclusion(self):
        rng = np.random.default_rng(17)
        for _ in range(25):
            small = random_torus_set(rng, pieces=2)
            extra = random_torus_set(rng, pieces=1)
            large = ThickSet(small.intervals + extra.intervals, (0.0, 1.0))
            seq = Sequence(tuple(sorted(rng.choice(60, 8, replace=False))))
            a = nazarov_constant(small, seq).lambda_min
            b = nazarov_constant(large, seq).lambda_min
            assert a <= b + 1e-12

    @pytest.mark.parametrize("K", [30, 36])  # 4**36 is past int64
    def test_counterexample_on_full_torus_is_exact(self, K):
        E = ThickSet(((0, 1),), (0, 1))
        seq = build_counterexample(K)
        np.testing.assert_array_equal(gram_matrix(E, seq).entries, np.eye(2 * K))
        est = nazarov_constant(E, seq)
        assert est.lambda_min == 1.0 and est.degenerate is False

    def test_estimate_record(self):
        E = ThickSet(((0.0, 0.5),), (0.0, 1.0))
        est = nazarov_constant(E, Sequence((0, 1)))
        d = est.to_dict()
        assert d["degenerate"] is False
        assert est.residual <= 1e-10


class TestLsConstant:
    def test_full_window_is_exactly_one(self):
        grid = Grid(8.0, 1024)
        E = ThickSet(((0.0, 8.0),), (0.0, 8.0))
        est = ls_constant(E, (0.0, 1.0), grid)
        assert est.constant_C == 1.0 and est.lambda_min == 1.0

    def test_gamma_sweep_monotone(self):
        grid = Grid(8.0, 1024)
        ests = {
            g: ls_constant(periodic_comb(g, 1.0, (0.0, 8.0)), (0.0, 1.0), grid)
            for g in (0.2, 0.5, 0.8)
        }
        assert all(math.isfinite(e.constant_C) for e in ests.values())
        assert ests[0.8].constant_C <= ests[0.5].constant_C <= ests[0.2].constant_C

    def test_lacunary_profile_constant_reported(self):
        grid = Grid(8.0, 8192)
        E = periodic_comb(0.5, 1.0, (0.0, 8.0))
        prof = SpectralProfile(Sequence((4, 16, 64, 256)))
        est = ls_constant(E, prof, grid)
        base = ls_constant(E, (0.0, 1.0), grid)
        assert math.isfinite(est.constant_C)
        assert est.constant_C >= 1.0 and base.constant_C >= 1.0

    def test_profile_enlargement_cannot_decrease_constant(self):
        # the smaller span's form is a principal compression of the larger,
        # so the smallest eigenvalue cannot increase when the span grows
        grid = Grid(8.0, 1024)
        E = periodic_comb(0.5, 1.0, (0.0, 8.0))
        small = ls_constant(E, (0.0, 1.0), grid)
        large = ls_constant(E, SpectralProfile(Sequence((0, 4, 16))), grid)
        assert large.constant_C >= small.constant_C - 1e-12

    def test_effectively_degenerate_reported(self):
        grid = Grid(8.0, 512)
        E = ThickSet(((0.0, 1e-5),), (0.0, 8.0))
        est = ls_constant(E, (0.0, 1.0), grid)
        assert est.degenerate and est.constant_C == math.inf

    def test_window_mismatch_rejected(self):
        grid = Grid(8.0, 512)
        E = ThickSet(((0.0, 0.5),), (0.0, 1.0))
        with pytest.raises(ValueError, match="window"):
            ls_constant(E, (0.0, 1.0), grid)

    def test_nyquist_enforced(self):
        grid = Grid(8.0, 32)
        E = ThickSet(((0.0, 8.0),), (0.0, 8.0))
        with pytest.raises(ValueError, match="Nyquist"):
            ls_constant(E, (0.0, 4.0), grid)


class TestEigensystem:
    def test_dimension_cap(self):
        m = np.eye(2001)
        with pytest.raises(ValueError, match="cap"):
            hermitian_eigensystem(HermitianForm(2001, m, {}))

    def test_one_cap_before_assembly(self, monkeypatch):
        import lacspec.concentration as conc

        def refuse(*args, **kwargs):
            pytest.fail("the form was assembled")

        monkeypatch.setattr(conc, "MAX_DENSE_DIM", 2)
        form = HermitianForm(3, np.eye(3), {})  # as read from a file
        monkeypatch.setattr(conc, "_gram_entries", refuse)
        E = ThickSet(((0.0, 4.0),), (0.0, 4.0))
        for call in (lambda: nazarov_constant(ThickSet(((0.0, 0.5),), (0.0, 1.0)),
                                              Sequence((0, 1, 2))),
                     lambda: ls_constant(E, (0.0, 0.5), Grid(4.0, 64)),
                     lambda: hermitian_eigensystem(form)):
            with pytest.raises(ValueError, match="^dimension 3 exceeds the dense solver cap 2$"):
                call()

    def test_residual_reported(self):
        G = gram_matrix(ThickSet(((0.0, 0.5),), (0.0, 1.0)), Sequence((0, 1, 2)))
        vals, vecs, residual = hermitian_eigensystem(G)
        assert residual <= 1e-10
        assert list(vals) == sorted(vals)


def cell_weights_oracle(grid, intervals):
    """Measure of each cell [x_j, x_{j+1}) inside the intervals, cell by cell."""
    h = grid.spacing
    return np.array([
        sum(max(0.0, min(b, (j + 1) * h) - max(a, j * h)) for a, b in intervals)
        for j in range(grid.samples)
    ])


def lemma_oracle(f_list, seq, E, interval, grid):
    """The three lemma terms with F modulated sample by sample by np.exp and
    each f_n' synthesized separately."""
    x = grid.points()
    F = sum(f.values * np.exp(2j * np.pi * float(lam) * x) for f, lam in zip(f_list, seq.values))
    sq = sum(np.abs(f.values) ** 2 for f in f_list)
    sob = sum(np.abs(f.derivative().values) ** 2 for f in f_list)
    i0, i1 = interval
    inside = [(max(a, i0), min(b, i1)) for a, b in E.intervals if min(b, i1) > max(a, i0)]
    w_i = cell_weights_oracle(grid, [interval])
    w_ie = cell_weights_oracle(grid, inside)
    return (np.sum(w_ie * np.abs(F) ** 2), np.sum(w_i * sq), np.sum(w_i * (sq + sob)))


def assert_terms_match_oracle(f_list, seq, E, interval, L):
    grid = f_list[0].grid
    rec = lemma_main_report(f_list, seq, E, interval, L)
    got = (rec.lhs, rec.term_density, rec.term_sobolev)
    for value, oracle in zip(got, lemma_oracle(f_list, seq, E, interval, grid)):
        assert value == pytest.approx(oracle, rel=1e-12, abs=0)


def fft_spy(monkeypatch):
    """Sizes of the arrays every np.fft transform is called on, in call order."""
    sizes = []
    for name in ("fft", "ifft", "rfft", "irfft", "hfft", "ihfft", "fftn", "ifftn",
                 "rfftn", "irfftn", "fft2", "ifft2", "rfft2", "irfft2"):
        def spy(a, *args, _transform=getattr(np.fft, name), **kwargs):
            sizes.append(np.size(a))
            return _transform(a, *args, **kwargs)

        monkeypatch.setattr(np.fft, name, spy)
    return sizes


class TestLemmaReport:
    @pytest.mark.parametrize("period, samples, freqs, L, start", [
        (16.0, 4096, (4, 16, 64), 16, 0.0),
        (8.0, 2048, (-3, 0, 2.5), 4, 0.0),
        (16.0, 1024, (1.25, 7), 2, 0.0),
        (15.9999999999, 4096, (4, 16), 16, 0.0),  # frequencies within the snap tolerance of a bin
        (16.0, 4096, (4, 16, 64), 16, 2.3),  # a window off 0 whose ends are not grid points
        (15.9999999999, 4096, (4, 16), 4, 7.77),
        (8.0, 1024, (-3, 0, 2.5), 1, 0.0),  # L = 1
        (8.0, 1024, (-3, 0, 2.5), 1, 2.3),
        (16.0, 1024, (1.25, 7), 2, 15.5),  # a window that ends at T
    ])
    def test_terms_match_sample_modulation_oracle(self, period, samples, freqs, L, start):
        grid = Grid(period, samples)
        E = periodic_comb(0.5, 0.5, (0.0, period))
        seq = Sequence(freqs)
        rng = np.random.Generator(np.random.Philox(21))
        for _ in range(3):
            fs = [random_band_function(grid, rng) for _ in freqs]
            assert_terms_match_oracle(fs, seq, E, (start, start + 1 / L), L)

    @pytest.mark.parametrize("L, start, transforms", [
        (4, 0.0, 2),  # |J| = 32 samples: 32 * ~2040 bins > S, one FFT per dense f_n'
        (1, 2.3, 4),  # |J| = 129: the unit band's 17 bins go past S too, two more FFTs
        (16, 2.3, 2),
        (128, 0.0, 0),  # |J| = 1: ~2040 bins, no more than S, a direct sum even when dense
    ])
    def test_dense_and_zero_functions_match_the_oracle(self, monkeypatch, L, start, transforms):
        grid = Grid(16.0, 2048)
        E = periodic_comb(0.5, 0.5, (0.0, 16.0))
        rng = np.random.Generator(np.random.Philox(22))
        random_values = [random_band_function(grid, rng).values for _ in range(2)]
        fs = [from_values(grid, random_values[0], (0.0, 1.0)),  # a dense spectrum
              from_values(grid, random_values[1]),
              BandFunction.from_spectrum(grid, np.zeros(2048), (0.0, 1.0)),
              random_band_function(grid, rng)]
        seq = Sequence((4, 8, 16, 32))
        assert all(np.count_nonzero(f.spectrum()) > 2000 for f in fs[:2])
        for f in fs[:2]:
            f.values  # the samples at hand: past the cap only f_n' is transformed
        sizes = fft_spy(monkeypatch)
        lemma_main_report(fs, seq, E, (start, start + 1 / L), L)
        assert sizes == [2048] * transforms
        assert_terms_match_oracle(fs, seq, E, (start, start + 1 / L), L)

    def test_trials_transform_no_array_of_the_grid(self, monkeypatch):
        grid = Grid(16.0, 16384)
        E = periodic_comb(0.5, 1.0, (0.0, 16.0))
        sizes = fft_spy(monkeypatch)
        lemma_trials(Sequence((4, 16, 64)), E, grid, 8, 7, 3)
        assert grid.samples not in sizes
        random_band_function(grid, np.random.default_rng(0)).values  # the spy sees a transform
        assert sizes[-1] == grid.samples

    def test_cell_weights_match_cell_by_cell_oracle(self):
        grid = Grid(4.0, 64)
        E = ThickSet(((0.1, 0.73), (1.0, 1.0625), (2.5, 4.0)), (0.0, 4.0))
        cells = CellQuadrature(E, grid, (0.0, 2.75))
        inside = [(0.1, 0.73), (1.0, 1.0625), (2.5, 2.75)]
        np.testing.assert_allclose(cells.set_weights, cell_weights_oracle(grid, inside),
                                   rtol=0, atol=1e-15)
        np.testing.assert_allclose(cells.window_weights,
                                   cell_weights_oracle(grid, [(0.0, 2.75)]), rtol=0, atol=1e-15)
        rng = np.random.default_rng(4)
        for period, samples in ((7.9999999999, 100), (3.0, 7)):
            grid = Grid(period, samples)
            for _ in range(20):
                cuts = np.sort(np.concatenate([rng.uniform(0, period, 4),
                                               grid.spacing * rng.integers(0, samples + 1, 2)]))
                E = ThickSet(tuple(zip(cuts[::2], cuts[1::2])), (0.0, period))
                if E.measure > 0:
                    np.testing.assert_allclose(CellQuadrature(E, grid).set_weights,
                                               cell_weights_oracle(grid, E.intervals),
                                               rtol=0, atol=1e-14)

    def test_cells_of_another_set_or_interval_rejected(self):
        grid = Grid(16.0, 1024)
        E = periodic_comb(0.5, 1.0, (0.0, 16.0))
        fs = [random_band_function(grid, np.random.default_rng(0))]
        other = CellQuadrature(periodic_comb(0.25, 1.0, (0.0, 16.0)), grid, (0.0, 1 / 16))
        with pytest.raises(ValueError, match="another set"):
            lemma_main_report(fs, Sequence((4,)), E, (0.0, 1 / 16), 16, cells=other)
        wide = CellQuadrature(E, grid, (0.0, 1 / 8))
        with pytest.raises(ValueError, match="another set"):
            lemma_main_report(fs, Sequence((4,)), E, (0.0, 1 / 16), 16, cells=wide)

    def test_null_set_rejected(self):
        grid = Grid(16.0, 1024)
        fs = [random_band_function(grid, np.random.default_rng(0))]
        with pytest.raises(ValueError, match="positive measure"):
            lemma_main_report(fs, Sequence((4,)), ThickSet((), (0.0, 16.0)), (0.0, 1 / 16), 16)

    def test_zero_functions(self):
        grid = Grid(16.0, 1024)
        E = periodic_comb(0.5, 1.0, (0.0, 16.0))
        fs = [BandFunction(grid, [], [], (0.0, 1.0)) for _ in range(2)]
        rec = lemma_main_report(fs, Sequence((4, 16)), E, (0.0, 1 / 16), 16)
        assert rec == LemmaTerms(0.0, 0.0, 0.0)

    def test_constant_layer_on_covered_interval(self):
        grid = Grid(16.0, 1024)
        E = ThickSet(((0.0, 16.0),), (0.0, 16.0))
        one = BandFunction(grid, [0], [1.0], (0.0, 1.0))
        rec = lemma_main_report([one], Sequence((0,)), E, (0.0, 1 / 16), 16)
        assert rec.lhs == pytest.approx(rec.term_density, rel=1e-12)
        assert rec.term_density == pytest.approx(1 / 16, rel=1e-12)

    @pytest.mark.parametrize("band, lam, resolved", [
        ((0.0, 1.0), 2.875, True),     # bins 0..8 move to 23..31
        ((0.0, 1.0), 3, False),        # ... to 24..32, the Nyquist bin of S = 64
        ((-1.0, 0.0), -2.875, True),   # bins -8..0 move to -31..-23
        ((-1.0, 0.0), -3, False),      # ... to -32..-24
    ])
    @pytest.mark.parametrize("declared", [True, False])
    def test_shift_past_nyquist_refused(self, band, lam, resolved, declared):
        grid = Grid(8.0, 64)
        E = periodic_comb(0.5, 1.0, (0.0, 8.0))
        f = random_band_function(grid, np.random.default_rng(3), band)
        if not declared:  # bins taken from where the spectral mass is
            f = from_values(grid, f.values)
        args = ([f], Sequence((lam,)), E, (0.0, 1 / 16), 16)
        if resolved:
            lemma_main_report(*args)
        else:
            with pytest.raises(ValueError, match="Nyquist violation: bin -?32 "):
                lemma_main_report(*args)

    @pytest.mark.parametrize("interval, L", [((0.0, 1.0), 1), ((-0.25, 0.25), 2),
                                             ((0.3, 0.55), 4), ((0.0, float("nan")), 1)])
    def test_window_outside_the_period_refused(self, interval, L):
        # the cell weights cover [0, T] only: the part of I outside it would be dropped
        grid = Grid(0.5, 256)
        E = ThickSet(((0.0, 0.5),), (0.0, 0.5))
        f = random_band_function(grid, np.random.default_rng(0))
        message = (rf"^interval I = \[{interval[0]}, {interval[1]}\] is not inside "
                   rf"the grid window \[0, T\] = \[0.0, 0.5\]$")
        with pytest.raises(ValueError, match=message):
            CellQuadrature(E, grid, interval)
        with pytest.raises(ValueError, match=message):
            lemma_main_report([f], Sequence((0,)), E, interval, L)
        lemma_main_report([f], Sequence((0,)), E, (0.25, 0.5), 4)  # I may end at T

    def test_interval_length_validated(self):
        grid = Grid(16.0, 1024)
        E = periodic_comb(0.5, 1.0, (0.0, 16.0))
        with pytest.raises(ValueError, match="1/L"):
            lemma_main_report([], Sequence(()), E, (0.0, 0.3), 16)

    def test_random_ensemble_terms_are_consistent(self):
        grid = Grid(16.0, 4096)
        E = periodic_comb(0.5, 1.0, (0.0, 16.0))
        rng = np.random.Generator(np.random.Philox(5))
        seq = Sequence((4, 16, 64))
        for _ in range(5):
            fs = [random_band_function(grid, rng) for _ in range(3)]
            rec = lemma_main_report(fs, seq, E, (0.0, 1 / 16), 16)
            assert 0 <= rec.lhs
            assert rec.term_density <= rec.term_sobolev


class TestTheoremSplit:
    def test_full_window_ratio_one(self):
        grid = Grid(8.0, 2048)
        E = ThickSet(((0.0, 8.0),), (0.0, 8.0))
        rec = theorem_split_check(
            [[1.0]], Sequence((4,)), TailSchedule.constant(1), 1, E, grid
        )
        assert rec.ratio == pytest.approx(1.0, abs=1e-12)

    def test_pure_frequency_half_comb(self):
        grid = Grid(8.0, 8192)
        E = periodic_comb(0.5, 1.0, (0.0, 8.0))
        rec = theorem_split_check(
            [[1.0]], Sequence((4,)), TailSchedule.constant(1), 1, E, grid
        )
        assert rec.ratio**2 == pytest.approx(0.5, abs=1e-10)

    def test_head_tail_pythagoras(self):
        grid = Grid(8.0, 8192)
        E = periodic_comb(0.5, 1.0, (0.0, 8.0))
        rng = np.random.Generator(np.random.Philox(9))
        seq = Sequence((4, 16, 64, 256))
        schedule = TailSchedule(((1, 3),))
        blocks = [
            rng.standard_normal(9) + 1j * rng.standard_normal(9) for _ in range(4)
        ]
        rec = theorem_split_check(blocks, seq, schedule, 1, E, grid)
        assert rec.ratio_head**2 + rec.ratio_tail**2 == pytest.approx(1.0, abs=1e-12)
        assert rec.ratio > 0

    @pytest.mark.parametrize("M", [1, 2, 3, 4, 5, 9])
    def test_head_tail_fractions_match_separate_synthesis(self, M):
        # M = 1 leaves the head empty, M > 4 the tail
        grid = Grid(8.0, 4096)
        E = periodic_comb(0.5, 1.0, (0.0, 8.0))
        rng = np.random.Generator(np.random.Philox(13))
        seq = Sequence((3, 9, 27, 81))
        blocks = [rng.standard_normal(9) + 1j * rng.standard_normal(9) for _ in range(4)]
        rec = theorem_split_check(blocks, seq, TailSchedule(((1, M),)), 1, E, grid)
        F = synthesize(blocks, seq, grid)
        head = synthesize(blocks[: M - 1], seq[: M - 1], grid)
        tail = synthesize(blocks[M - 1:], seq[M - 1:], grid)
        assert rec.ratio_head == pytest.approx(math.sqrt(head.norm_sq / F.norm_sq), abs=1e-12)
        assert rec.ratio_tail == pytest.approx(math.sqrt(tail.norm_sq / F.norm_sq), abs=1e-12)
        if M == 1:
            assert rec.ratio_head == 0.0
        if M > 4:
            assert rec.ratio_tail == 0.0

    def test_null_set_rejected(self):
        grid = Grid(8.0, 2048)
        with pytest.raises(ValueError, match="positive measure"):
            theorem_split_check([[1.0]], Sequence((4,)), TailSchedule.constant(1), 1,
                                ThickSet((), (0.0, 8.0)), grid)

    def test_positive_frequency_hypothesis(self):
        grid = Grid(8.0, 2048)
        E = periodic_comb(0.5, 1.0, (0.0, 8.0))
        with pytest.raises(ValueError, match="positive"):
            theorem_split_check(
                [[1.0]], Sequence((-4,)), TailSchedule.constant(1), 1, E, grid
            )

    def test_zero_function_rejected(self):
        grid = Grid(8.0, 2048)
        E = periodic_comb(0.5, 1.0, (0.0, 8.0))
        with pytest.raises(ValueError, match="zero function"):
            theorem_split_check(
                [[0.0]], Sequence((4,)), TailSchedule.constant(1), 1, E, grid
            )


def sampled_split(blocks, seq, schedule, L, E, grid):
    """Oracle of theorem_split_check: F sampled by one inverse FFT, its
    restricted energy sum_j w_j |F(x_j)|^2 over the cell weights of E, its
    squared norm from the same samples, and the head and tail by Parseval."""
    F = synthesize(blocks, seq, grid)
    power = np.abs(F.values) ** 2
    norm_sq = float(np.sum(power) * grid.spacing)
    restricted = float(np.sum(CellQuadrature(E, grid).set_weights * power))
    energy = [float(np.sum(np.abs(np.asarray(b, dtype=complex)) ** 2)) for b in blocks]
    M = schedule.value(L)
    head = grid.period * sum(energy[: M - 1])
    return restricted / norm_sq, head / norm_sq, grid.period * sum(energy[M - 1:]) / norm_sq


@st.composite
def split_cases(draw):
    """A grid, positive on-grid anchors more than 1 apart, one block per
    anchor (up to its band's width), a tail start M (1 empties the head, past
    the anchors the tail) and a comb, a rational union or the full window."""
    T = draw(st.sampled_from([2.0, 4.0, 5.0, 8.0]))
    S = draw(st.sampled_from([32, 64, 128, 512, 2048]))
    gaps = draw(st.lists(st.integers(int(T) + 1, 40), min_size=1, max_size=4))
    start = draw(st.integers(1, 40))
    bins = list(accumulate(gaps[1:], initial=start))
    assume(2 * (bins[-1] + T + 1) < S)
    seq = Sequence(tuple(k / T for k in bins))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    blocks = []
    for _ in bins:
        n = draw(st.integers(1, int(T) + 1))
        blocks.append(rng.standard_normal(n) + 1j * rng.standard_normal(n))
    assume(any(np.any(b) for b in blocks))
    M = draw(st.integers(1, len(bins) + 2))
    kind = draw(st.sampled_from(["comb", "union", "full"]))
    if kind == "comb":
        E = periodic_comb(draw(st.sampled_from([0.25, 0.5, 0.75, 1 / 3])),
                          draw(st.sampled_from([0.25, 0.5, 1.0])), (0.0, T))
    elif kind == "union":
        q = draw(st.integers(1, 64))
        cuts = draw(st.lists(st.integers(0, int(T) * q), min_size=2, max_size=8, unique=True))
        cuts = sorted(Fraction(c, q) for c in cuts)[: len(cuts) // 2 * 2]
        E = ThickSet(tuple(zip(cuts[0::2], cuts[1::2])), (Fraction(0), Fraction(int(T))))
    else:
        E = ThickSet(((0.0, T),), (0.0, T))
    return Grid(T, S), seq, blocks, TailSchedule(((1, M),)), E, kind


class TestSplitQuadraticForm:
    @given(split_cases())
    @example((Grid(8.0, 64), Sequence((0.5,)), [np.arange(1, 10) * (1 + 1j)],  # 81 > 64 entries
              TailSchedule(((1, 1),)), periodic_comb(0.5, 1.0, (0.0, 8.0)), "comb"))
    @settings(max_examples=300, deadline=None)
    def test_matches_the_sampled_restricted_energy(self, case):
        grid, seq, blocks, schedule, E, kind = case
        rec = theorem_split_check(blocks, seq, schedule, 1, E, grid)
        restricted, head, tail = sampled_split(blocks, seq, schedule, 1, E, grid)
        assert rec.ratio ** 2 == pytest.approx(restricted, rel=1e-13, abs=1e-15)
        assert rec.ratio_head ** 2 == pytest.approx(head, rel=1e-13, abs=0)
        assert rec.ratio_tail ** 2 == pytest.approx(tail, rel=1e-13, abs=0)
        if kind == "full":
            assert abs(rec.ratio - 1.0) <= 1e-12

    def test_table_past_the_cap_samples_the_function(self, monkeypatch):
        grid, seq = Grid(8.0, 64), Sequence((0.5,))
        E = periodic_comb(0.5, 1.0, (0.0, 8.0))
        cells = CellQuadrature(E, grid)
        sizes = fft_spy(monkeypatch)
        for width, transforms in ((8, [64]), (9, [64])):  # 64 entries, then 81 > 64
            blocks = [np.arange(1, width + 1) * (1 - 2j)]
            rec = theorem_split_check(blocks, seq, TailSchedule.constant(1), 1, E, grid,
                                      cells=cells)
            # the weight spectrum on first use, then one inverse FFT of F past the cap
            assert sizes == transforms
            sizes.clear()
            restricted, _, _ = sampled_split(blocks, seq, TailSchedule.constant(1), 1, E, grid)
            sizes.clear()
            assert rec.ratio ** 2 == pytest.approx(restricted, rel=1e-13)

    def test_an_ensemble_transforms_only_the_weights(self, monkeypatch):
        grid = Grid(16.0, 16384)
        E = periodic_comb(0.5, 1.0, (0.0, 16.0))
        sizes = fft_spy(monkeypatch)
        records = split_trials(Sequence((2, 8, 32)), E, grid, 1, TailSchedule(((1, 2),)), 7, 20)
        assert len(records) == 20
        assert sizes == [grid.samples]
