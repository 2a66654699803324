import math
import tracemalloc
from fractions import Fraction
from itertools import accumulate
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

import lacspec.concentration as conc
from lacspec.concentration import (
    HermitianForm,
    LemmaTerms,
    _lemma_window,
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
from lacspec.sequences import Sequence, TailSchedule, build_counterexample, build_greedy
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


EPS = np.finfo(float).eps


def closed_form_oracle(freqs, intervals, period):
    """The Gram matrix of the closed form alone, as the kernel assembled
    every list before the endpoint form: each difference exact in Python
    numbers until one rounding to float, divided by the period, then
    e^{i pi d (a+b)} sin(pi d (b-a)) / (pi d) per interval and distinct d
    (the limit b - a where d (b-a) underflows), summed and divided by the
    period."""
    n = len(freqs)
    rows, cols = np.triu_indices(n)
    exact = np.array(freqs, dtype=object)
    distinct, inverse = np.unique((exact[rows] - exact[cols]).astype(float) / period,
                                  return_inverse=True)
    acc = 0
    for a, b in intervals:
        width, center = float(b - a), float(a + b)
        dw = distinct * width
        k = np.round(dw)
        s = np.sin(np.pi * (dw - k)) * (1 - 2 * (k % 2))
        phase = distinct * center
        phase -= 2 * np.round(phase / 2)
        with np.errstate(invalid="ignore"):
            z = np.exp(1j * np.pi * phase) * (s / (np.pi * distinct))
        acc = acc + np.where(np.abs(dw) < np.finfo(float).tiny, width, z)
    entries = (acc.view(float) / period).view(complex)[inverse]
    m = np.zeros((n, n), dtype=complex)
    m[rows, cols] = entries
    m[cols, rows] = entries.conj()
    return m


def endpoint_entries(freqs, intervals, period):
    """The upper triangle of the endpoint form, whatever the list, and that
    of the oracle."""
    rows, cols = np.triu_indices(len(freqs))
    exact = np.array(freqs, dtype=object)
    diffs = (exact[rows] - exact[cols]).astype(float)
    return (conc._endpoint_form(freqs, intervals, period, rows, cols, diffs),
            closed_form_oracle(freqs, intervals, period)[rows, cols])


def endpoint_spy(monkeypatch):
    """The list sizes of every Gram assembled in the endpoint form, in call
    order."""
    sizes = []
    end_numerators = conc._end_numerators

    def spy(freqs, *rest):
        sizes.append(len(freqs))
        return end_numerators(freqs, *rest)

    monkeypatch.setattr(conc, "_end_numerators", spy)
    return sizes


@st.composite
def gram_cases(draw):
    """A frequency list, intervals inside [0, T] and T for the two forms.

    Integer lists in int64 range, and lists spanning more than 2**62 (so
    the differences are Python ints); Fractions and floats on (1/64)Z, so
    that every difference is exact in float, with pairs closer than 1.  (A
    difference that rounds moves the closed form, which evaluates the
    rounded one, by up to pi |d| eps; the endpoint form keeps the exact
    phases.)  Ends are exact Fractions or floats of any bits."""
    period = draw(st.sampled_from([1, 2.0, 8.0, 128.0, 3.0]))
    kind = draw(st.sampled_from(["int64", "past 2**62", "fraction", "float"]))
    elements = {
        "int64": st.integers(-10**6, 10**6),
        "past 2**62": st.one_of(st.integers(-50, 50), st.integers(2**62, 2**62 + 50),
                                st.integers(2**80 - 50, 2**80)),
        "fraction": st.integers(-64000, 64000).map(lambda k: Fraction(k, 64)),
        "float": st.integers(-64000, 64000).map(lambda k: k / 64),
    }[kind]
    freqs = sorted(draw(st.lists(elements, min_size=2, max_size=10, unique=True)))
    if draw(st.booleans()):
        q = draw(st.integers(1, 1000))
        ends = st.integers(0, q).map(lambda k: Fraction(k, q) * Fraction(period))
    else:
        ends = st.floats(0.0, float(period))
    cuts = sorted(draw(st.lists(ends, min_size=2, max_size=24, unique=True)))
    cuts = cuts[: len(cuts) // 2 * 2]
    return freqs, list(zip(cuts[0::2], cuts[1::2])), period


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


def one_interval_closed_form(a, b, d):
    """The closed form over one interval [a, b] at each d, evaluated for that
    interval alone."""
    width, center = float(b - a), float(a + b)
    dw = d * width
    k = np.round(dw)
    s = np.sin(np.pi * (dw - k)) * (1 - 2 * (k % 2))
    phase = d * center
    phase -= 2 * np.round(phase / 2)
    with np.errstate(invalid="ignore"):
        z = np.exp(1j * np.pi * phase) * (s / (np.pi * d))
    return np.where(np.abs(dw) < np.finfo(float).tiny, width, z)


def per_interval_closed_form(d, intervals, period):
    """Oracle of ``_closed_form``'s bits: one numpy pass per interval, summed
    by ``sum`` in interval order."""
    distinct, inverse = np.unique(d, return_inverse=True)
    acc = sum(one_interval_closed_form(a, b, distinct) for a, b in intervals)
    return (acc.view(float) / period).view(complex)[inverse]


TINY_ENDS = [0.0, 5e-324, 1e-310, 2.2250738585072014e-308, 1.0, 1.0 + EPS]


@st.composite
def closed_form_cases(draw):
    """Intervals with float, Fraction or int ends (zero and subnormal widths
    among the floats), 1 to 3000 distinct d with repeats, a period, and a
    block size that may split the intervals at any count."""
    kind = draw(st.sampled_from(["float", "fraction", "int"]))
    if kind == "float":
        end = st.one_of(st.sampled_from(TINY_ENDS), st.floats(-64, 64))
    elif kind == "fraction":
        end = st.builds(Fraction, st.integers(-4096, 4096), st.integers(1, 97))
    else:
        end = st.integers(-64, 64)
    intervals = [tuple(sorted(pair)) for pair in
                 draw(st.lists(st.tuples(end, end), min_size=1, max_size=48))]
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    count = draw(st.integers(1, 3000))
    d = rng.standard_normal(count) * draw(st.sampled_from([1.0, 64.0, 1e6]))
    if draw(st.booleans()):  # rational differences: zeros and integer cycle counts
        d = np.round(d) / draw(st.sampled_from([1, 3, 1024]))
    d = np.concatenate([d, d[: draw(st.integers(0, count))]])
    period = draw(st.sampled_from([1, 2.0, 16.0, 3.7]))
    block = draw(st.sampled_from([conc._BLOCK_ENTRIES, 1, 64, 1000]))
    return d, intervals, period, block


class TestClosedForm:
    @given(closed_form_cases())
    @example((np.array([0.0, 1.0, -1.0]), [(0.0, 5e-324), (1.0, 1.0), (0.25, 0.75)], 1, 1))
    @example((np.arange(-1500.0, 1500.0) / 7, [(Fraction(k, 3), Fraction(k + 1, 3))
                                                for k in range(40)], 16.0, conc._BLOCK_ENTRIES))
    @settings(max_examples=200, deadline=None)
    def test_array_pass_has_the_bits_of_the_per_interval_sum(self, case):
        # 2**16 // 3000 = 21 intervals a block at 3000 distinct d, and the
        # smaller blocks split every interval count
        d, intervals, period, block = case
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(conc, "_BLOCK_ENTRIES", block)
            got = conc._closed_form(d, intervals, period)
        assert got.tobytes() == per_interval_closed_form(d, intervals, period).tobytes()

    @pytest.mark.parametrize("count, width", [(4096, 401), (3, 70001)])
    def test_a_block_bounds_the_temporaries(self, count, width):
        # 4096 intervals against 401 distinct d would be 1.6e6 entries, 26 MB
        # a complex array, in one pass; a block holds 2**16 entries (1 MB), or
        # one row of d when d has more
        E = periodic_comb(0.5, 1.0, (0.0, float(count)))
        intervals = E.intervals
        assert len(intervals) == count
        d = np.arange(width) / count
        tracemalloc.start()
        try:
            conc._closed_form(d, intervals, float(count))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 10 * 16 * max(conc._BLOCK_ENTRIES, width)


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

    @given(gram_cases())
    @example(([0, 1], [(0.0, 0.5)], 1))
    @example(([Fraction(0), Fraction(1, 64), Fraction(65, 64)], [(Fraction(1, 3), Fraction(1, 2))],
              3.0))  # a close pair and a pair 1 + 1/64 apart
    @example(([-3, 2**62 + 1, 2**80], [(0.0, 0.25), (0.5, 1.0)], 1))
    @settings(max_examples=300, deadline=None)
    def test_endpoint_form_matches_the_closed_form(self, case):
        freqs, intervals, period = case
        got, want = endpoint_entries(freqs, intervals, period)
        assert np.max(np.abs(got - want)) <= 2 * len(intervals) * EPS
        # the diagonal and the pairs closer than 1 are the closed form's bits
        rows, cols = np.triu_indices(len(freqs))
        exact = np.array(freqs, dtype=object)
        close = np.abs((exact[rows] - exact[cols]).astype(float)) < 1
        np.testing.assert_array_equal(got[close], want[close])

    def test_exact_phases_beat_a_rounded_difference(self):
        # a difference of 3001/3: the closed form evaluates it rounded to
        # float, the endpoint form exactly (against mpmath at 40 digits)
        mpmath = pytest.importorskip("mpmath")
        freqs = [0, Fraction(3001, 3)]
        intervals = [(Fraction(1, 8), Fraction(5, 8))]
        got, want = endpoint_entries(freqs, intervals, 1)
        with mpmath.workdps(40):
            d = -mpmath.mpf(3001) / 3
            exact = complex((mpmath.expjpi(2 * d * mpmath.mpf(5) / 8)
                             - mpmath.expjpi(2 * d * mpmath.mpf(1) / 8)) / (2j * mpmath.pi * d))
        assert abs(got[1] - exact) <= EPS * abs(exact)
        assert abs(want[1] - exact) > 10 * abs(got[1] - exact)

    def test_the_form_follows_the_distinct_differences(self, monkeypatch):
        sizes = endpoint_spy(monkeypatch)
        E = ThickSet(((0.0, 0.25), (0.5, 0.75)), (0.0, 1.0))
        # n distinct differences of n(n+1)/2 pairs: the closed form
        gram_matrix(E, Sequence(tuple(range(3, 300, 7))))
        ls_constant(periodic_comb(0.5, 1.0, (0.0, 8.0)), (0.0, 4.0), Grid(8.0, 256))
        assert sizes == []
        # lacunary lists: the endpoint form
        for seq in (build_greedy(60), build_counterexample(5), Sequence((0, 1, 3))):
            G = gram_matrix(E, seq)
            np.testing.assert_allclose(G.entries, closed_form_oracle(seq.values, E.intervals, 1),
                                       rtol=0, atol=4 * EPS)
        assert sizes == [60, 10, 3]

    def test_a_comb_of_many_blocks_is_assembled_in_blocks(self):
        # 10**5 exact blocks: a table of all 2 * 10**5 end phases of the 8
        # frequencies would hold 12.8 MB as floats alone
        E = periodic_comb(Fraction(1, 2), Fraction(1, 10**5), (0, 1))
        intervals = E.intervals
        freqs = (1, 3, 10, 31, 100, 316, 1000, 3162)
        peaks = []
        for assemble in (lambda: conc._gram_entries(freqs, intervals, 1),
                         lambda: gram_matrix(E, Sequence(freqs))):
            tracemalloc.start()
            try:
                G = assemble()
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[0] < len(freqs) * 2 * len(intervals) * 8 / 2
        # no frequency difference is a multiple of the 10**5 blocks: G = I/2
        np.testing.assert_allclose(G.entries, np.eye(len(freqs)) / 2, rtol=0, atol=1e-10)
        # the form records its set in a few numbers: a list per interval
        # would hold three times what assembly does
        assert peaks[1] <= 1.5 * peaks[0]
        assert G.provenance["set"] == {
            "window": [0.0, 1.0], "measure": 0.5, "interval_count": 10**5, "periodic": True}

    def test_a_difference_past_the_float_range_is_refused(self):
        message = (r"^sequence: a frequency or a difference of two is past the largest float "
                   r"1\.7976931348623157e\+308$")
        E = ThickSet(((0.0, 0.5),), (0.0, 1.0))
        big = int(1.7e308)
        for seq in (Sequence((-big, big)), Sequence((0, 2**1100)),
                    Sequence((-1.7e308, 1.7e308))):
            with pytest.raises(ValueError, match=message):
                gram_matrix(E, seq)

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

    def test_zero_dimension_rejected(self, tmp_path):
        # numpy refused it: "zero-size array to reduction operation maximum ..."
        message = r"^dimension 0 holds no entries: a form needs dimension >= 1$"
        with pytest.raises(ValueError, match=message):
            HermitianForm(0, np.zeros((0, 0)), {})
        path = tmp_path / "empty.txt"
        path.write_text("0\n")
        with pytest.raises(ValueError, match=message):
            HermitianForm.from_text(path)


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
    def test_counterexample_on_full_torus_is_exact(self, K, monkeypatch):
        # the endpoint form: every end phase of an integer frequency is 1
        sizes = endpoint_spy(monkeypatch)
        seq = build_counterexample(K)
        for E in (ThickSet(((0, 1),), (0, 1)), ThickSet(((0.0, 1.0),), (0.0, 1.0))):
            np.testing.assert_array_equal(gram_matrix(E, seq).entries, np.eye(2 * K))
            est = nazarov_constant(E, seq)
            assert est.lambda_min == 1.0 and est.degenerate is False
        assert sizes == [2 * K] * 4

    def test_estimate_record(self):
        E = ThickSet(((0.0, 0.5),), (0.0, 1.0))
        est = nazarov_constant(E, Sequence((0, 1)))
        d = est.to_dict()
        assert d["degenerate"] is False
        assert est.residual <= 1e-10

    def test_a_subnormal_set_is_degenerate_at_plus_zero(self):
        # ||G|| is below tiny / EIG_RESIDUAL_TOL, where the residual contract
        # holds vacuously, and lambda_min = -0.0 is reported as +0.0
        for est in (nazarov_constant(ThickSet(((0.0, 5e-324),), (0.0, 1.0)), Sequence((0, 1, 2))),
                    ls_constant(periodic_comb(5e-324, 1.0, (0.0, 8.0)), (0.0, 1.0),
                                Grid(8.0, 64))):
            d = est.to_dict()
            assert d["degenerate"] is True and d["constant_C"] == "inf"
            assert d["lambda_min"] == 0.0 and math.copysign(1.0, d["lambda_min"]) == 1.0


@st.composite
def one_interval_cases(draw, max_terms=60):
    """One interval inside [0, 1], its ends floats, Fractions or the ints 0
    and 1, and a greedy, geometric or arithmetic list of up to ``max_terms``
    terms (geometric ones of ratio 3 pass int64 from 40 terms on)."""
    end = st.one_of(st.floats(0.0, 1.0), st.integers(0, 1),
                    st.builds(Fraction, st.integers(0, 97), st.just(97)))
    a, b = sorted((draw(end), draw(end)))
    assume(b > a)
    n = draw(st.integers(1, max_terms))
    kind = draw(st.sampled_from(["greedy", "geometric", "arithmetic"]))
    if kind == "greedy":
        freqs = build_greedy(n).values
    elif kind == "geometric":
        start, ratio = draw(st.integers(1, 5)), draw(st.sampled_from([2, 3, 1.5]))
        freqs = tuple(start * ratio**k for k in range(n))
    else:
        start = draw(st.one_of(st.integers(-50, 50), st.floats(-50.0, 50.0)))
        step = draw(st.sampled_from([1, 2, 7, 0.25, Fraction(1, 3)]))
        freqs = tuple(start + k * step for k in range(n))
    return ThickSet(((a, b),), (0, 1)), Sequence(freqs)


def eigvalsh_spy(monkeypatch):
    """The dtype of every matrix np.linalg.eigvalsh is given, in call order."""
    dtypes = []
    eigvalsh = np.linalg.eigvalsh

    def spy(a, *rest, **kwargs):
        dtypes.append(a.dtype)
        return eigvalsh(a, *rest, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", spy)
    return dtypes


class TestOneIntervalRealForm:
    """On one interval ``nazarov_constant`` solves the real symmetric Gram
    matrix of the centred interval; on more it solves the Gram matrix."""

    @given(one_interval_cases())
    @settings(max_examples=150, deadline=None)
    @example(case=(ThickSet(((0, 1),), (0, 1)), build_greedy(60)))
    @example(case=(ThickSet(((Fraction(1, 97), Fraction(96, 97)),), (0, 1)),
                   Sequence(tuple(3**k for k in range(60)))))
    @example(case=(ThickSet(((0.0, 6.017178384570254e-65),), (0, 1)), Sequence((1, 3))))
    def test_matches_the_complex_gram_matrix(self, case):
        # measured over 3000 seeded cases: at most 3.6 eps n ||G|| on
        # intervals of width >= 1/64, and 0.5 eps n on narrower ones.  End
        # phases are exact to absolute rounding only.  On [0, w] the complex
        # form has the exact phase 0 at its left end, which keeps it within
        # n eps ||G|| for w << 1/n; [-h, h] has no such end, hence eps n
        E, seq = case
        n = len(seq)
        est = nazarov_constant(E, seq)
        vals = hermitian_eigensystem(gram_matrix(E, seq))[0]
        norm = float(vals[-1])
        assert abs(est.lambda_min - max(float(vals[0]), 0.0)) <= 4 * EPS * n * norm + EPS * n
        assert est.residual <= conc.EIG_RESIDUAL_TOL * norm

    @given(one_interval_cases(max_terms=12))
    @settings(max_examples=40, deadline=None)
    def test_matches_an_exact_eigensolve(self, case):
        # the Gram matrix of the exact ends and frequencies, 50 digits
        mpmath = pytest.importorskip("mpmath")
        E, seq = case
        (a, b), = E.intervals
        n = len(seq)
        est = nazarov_constant(E, seq)

        def mp(x):
            p, q = conc._ratio(x)
            return mpmath.mpf(p) / q

        with mpmath.workdps(50):
            a, b, freqs = mp(a), mp(b), [mp(f) for f in seq.values]
            G = mpmath.matrix([[b - a if f == g else
                                (mpmath.expjpi(2 * (f - g) * b) - mpmath.expjpi(2 * (f - g) * a))
                                / (2j * mpmath.pi * (f - g)) for g in freqs] for f in freqs])
            exact = mpmath.eighe(G, eigvals_only=True)
            norm = float(max(exact))
            # eps n absolute, as against the complex form, on narrow intervals
            assert abs(est.lambda_min - max(float(min(exact)), 0.0)) <= 8 * EPS * norm + EPS * n

    @pytest.mark.parametrize("seq", [build_counterexample(K) for K in (11, 29, 36, 40)]
                             + [build_greedy(300)],
                             ids=["K11", "K29", "K36", "K40", "greedy300"])
    def test_full_torus_is_exactly_one(self, seq):
        for E in (ThickSet(((0, 1),), (0, 1)), ThickSet(((0.0, 1.0),), (0.0, 1.0))):
            est = nazarov_constant(E, seq)
            assert est.lambda_min == 1.0 and est.residual == 0.0

    @pytest.mark.parametrize("n, width", [(500, 1e-6), (1000, 1e-6), (1500, 1e-6),
                                          (500, 0.0222), (500, 0.03)])
    def test_large_lists_on_narrow_intervals_keep_the_verdict(self, n, width):
        # the end phases at -h and h are exact to absolute rounding only;
        # n eps would pass DEGENERACY_FLOOR from n = 450, but the measured
        # gap is at most 2e-16 (complex lambda_min ~0, 7e-15 and 1.1e-11),
        # through the Lanczos kernel (1.6e-16 through eigvalsh)
        E, seq = ThickSet(((0.0, width),), (0, 1)), build_greedy(n)
        est = nazarov_constant(E, seq)
        lam = float(hermitian_eigensystem(gram_matrix(E, seq))[0][0])
        assert est.degenerate == (lam < conc.DEGENERACY_FLOOR)
        assert abs(est.lambda_min - max(lam, 0.0)) <= 1e-2 * conc.DEGENERACY_FLOOR

    @pytest.mark.parametrize("a, b", [(0.1, 0.7), (1e-20, 0.5), (0.3, 0.9)])
    def test_the_half_width_is_taken_of_the_exact_ends(self, monkeypatch, a, b):
        # float(b - a) rounds for each of these ends
        seen = []
        gram_entries = conc._gram_entries
        monkeypatch.setattr(conc, "_gram_entries",
                            lambda f, intervals, T: seen.append(intervals) or
                            gram_entries(f, intervals, T))
        nazarov_constant(ThickSet(((a, b),), (0.0, 1.0)), build_greedy(8))
        h = (Fraction(b) - Fraction(a)) / 2
        assert seen == [[(-h, h)]] and h != Fraction(b - a) / 2

    @pytest.mark.parametrize("pieces", [2, 3, 6])
    def test_several_intervals_keep_the_complex_path_bits(self, monkeypatch, pieces):
        # the complex Gram matrix keeps hermitian_eigensystem's bits where the
        # Lanczos kernel falls back (short lists, progressions), and is within
        # the certificate's 4 n eps ||G|| where it does not (long lacunary lists)
        fallbacks = eigvalsh_spy(monkeypatch)
        rng = np.random.default_rng(pieces)
        routes = set()
        for seq in (build_greedy(80), Sequence(tuple(range(0, 120, 3))), build_counterexample(33),
                    Sequence(tuple(range(0, 600, 3))), build_greedy(200),
                    build_counterexample(60)):
            E = random_torus_set(rng, pieces)
            fallbacks.clear()
            est = nazarov_constant(E, seq)
            vals, _, residual = hermitian_eigensystem(gram_matrix(E, seq))
            if len(fallbacks) == 2:  # nazarov_constant's eigvalsh, then the oracle's
                routes.add("fallback")
                assert (est.lambda_min, est.residual) == (max(float(vals[0]), 0.0), residual)
            else:
                routes.add("lanczos")
                norm, n = float(vals[-1]), len(seq)
                assert abs(est.lambda_min - max(float(vals[0]), 0.0)) <= 4 * n * EPS * norm
                assert est.residual <= conc.EIG_RESIDUAL_TOL * norm
        assert routes == {"fallback", "lanczos"}

    def test_eigvalsh_is_real_on_one_interval_only(self, monkeypatch):
        # one interval is solved in real arithmetic on both routes: by the
        # Lanczos kernel (200 terms) and by its eigvalsh fallback (40 terms)
        dtypes = eigvalsh_spy(monkeypatch)
        kernel = []
        lanczos_pair = conc._lanczos_pair
        monkeypatch.setattr(conc, "_lanczos_pair",
                            lambda G, budget: kernel.append(G.dtype) or lanczos_pair(G, budget))
        one = ThickSet(((0.2, 0.7),), (0.0, 1.0))
        for seq in (build_greedy(40), build_greedy(200)):
            nazarov_constant(one, seq)
            nazarov_constant(ThickSet(((0.1, 0.2), (0.5, 0.7)), (0.0, 1.0)), seq)
        hermitian_eigensystem(gram_matrix(one, build_greedy(40)))
        assert dtypes == [np.float64, np.complex128, np.complex128]
        assert kernel == [np.float64, np.complex128]

    def test_an_imaginary_part_past_the_tolerance_is_refused(self, monkeypatch):
        gram_entries = conc._gram_entries
        monkeypatch.setattr(conc, "_gram_entries", lambda *a: gram_entries(*a) + 1e-9j)
        with pytest.raises(ValueError, match="not real within tolerance"):
            nazarov_constant(ThickSet(((0.2, 0.7),), (0.0, 1.0)), build_greedy(10))

    @pytest.mark.parametrize("E, seq, message", [
        (ThickSet(((0.0, 2.0),), (0.0, 2.0)), Sequence(tuple(range(2001))), "dense solver cap"),
        (ThickSet(((0.0, 2.0),), (0.0, 2.0)), Sequence(()), "inside the unit torus"),
        (ThickSet((), (0.0, 1.0)), Sequence(()), "positive measure"),
        (ThickSet(((0.2, 0.7),), (0.0, 1.0)), Sequence(()), "at least one frequency"),
    ], ids=["cap", "outside", "null", "empty"])
    def test_refusals_keep_the_gram_matrix_order(self, E, seq, message):
        for call in (gram_matrix, nazarov_constant):
            with pytest.raises(ValueError, match=message):
                call(E, seq)


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


@st.composite
def comb_cases(draw):
    """A comb of M blocks of width delta on [0, T], T = M delta, with exact
    (Fraction) or float ends and any fill gamma in (0, 1], and a band or a
    lacunary profile on a grid that resolves it."""
    M = draw(st.integers(1, 32))
    delta = draw(st.sampled_from([Fraction(1, 4), Fraction(1, 2), 1, 2, 3]))
    if draw(st.booleans()):
        q = draw(st.integers(1, 200))
        E = periodic_comb(Fraction(draw(st.integers(1, q)), q), delta, (0, M * delta))
    else:
        gamma = draw(st.floats(0.0, 1.0, exclude_min=True))
        E = periodic_comb(gamma, float(delta), (0.0, float(M * delta)))
        assume(E.measure > 0)  # a fill that underflows leaves no block
    T = float(M * delta)
    if draw(st.booleans()):
        lo = draw(st.integers(-3, 3))
        profile = (float(lo), lo + draw(st.floats(0.5, 6.0)))
    else:
        start, ratio = draw(st.integers(2, 4)), draw(st.integers(2, 4))
        count = draw(st.integers(1, 3))
        profile = SpectralProfile(Sequence(tuple(start * ratio**k for k in range(count))))
    try:
        bins = Grid(T, 2**24).band_bins(profile)
    except ValueError:  # a band narrower than the bin spacing 1/T
        assume(False)
    assume(bins.size <= 300)
    return E, profile, Grid(T, 2 ** (2 * int(np.abs(bins).max()) + 1).bit_length())


class TestCombClasses:
    @given(comb_cases())
    @example((periodic_comb(1.0, 0.1, (0.0, 1.0)), (0.0, 20.0), Grid(1.0, 64)))
    @example((periodic_comb(Fraction(1, 3), 1, (0, 8)),
              SpectralProfile(Sequence((2, 6, 18))), Grid(8.0, 1024)))
    @example((periodic_comb(0.5, 1.0, (0.0, 64.0)), SpectralProfile(Sequence((2, 8))),
              Grid(64.0, 2048)))
    @settings(max_examples=200, deadline=None)
    def test_classes_match_the_dense_path(self, case):
        # the dense path on the same set rebuilt from its intervals is the
        # oracle; over 6000 seeded cases |delta lambda_min| peaked at 0.64
        # eps (n ||G|| + M), so the bound is 4 eps (n ||G|| + M).  The M eps
        # term is the oracle's: it sums M intervals whose rounded ends and
        # phases leave about eps each, where the class path evaluates one
        # (a comb of fill 1/64 on 12 blocks of 1/4 differs by 28 n eps ||G||)
        E, profile, grid = case
        rebuilt = ThickSet(E.intervals, E.window, True)
        assert E.comb.blocks * E.comb.delta == grid.period and rebuilt.comb is None
        got, want = ls_constant(E, profile, grid), ls_constant(rebuilt, profile, grid)
        bins = grid.band_bins(profile)
        intervals = tuple((float(a), float(b)) for a, b in E.intervals)
        norm = np.linalg.eigvalsh(conc._gram_entries(bins.tolist(), intervals, grid.period))[-1]
        assert abs(got.lambda_min - want.lambda_min) <= 4 * EPS * (bins.size * norm
                                                                   + E.comb.blocks)
        assert got.residual <= conc.EIG_RESIDUAL_TOL * norm
        assert got.discretization == want.discretization

    @pytest.mark.parametrize("E, grid", [
        (periodic_comb(1, Fraction(1, 3), (0, 2)), Grid(2.0, 64)),
        (periodic_comb(1.0, 0.1, (0.0, 1.0)), Grid(1.0, 64)),
        (periodic_comb(Fraction(1), 2, (0, 128)), Grid(128.0, 4096)),
    ])
    def test_a_full_comb_is_exactly_one(self, E, grid):
        # the blocks come from the record, and every full comb merges into
        # one interval, the float one of 10 blocks of 0.1 too, so the dense
        # path on the comb rebuilt from its intervals is exactly one as well
        assert E.intervals == ((E.window[0], E.window[1]),)
        rebuilt = ThickSet(E.intervals, E.window, True)
        for profile in ((0.0, 3.0), SpectralProfile(Sequence((2, 6)))):
            for F in (E, rebuilt):
                est = ls_constant(F, profile, grid)
                assert est.lambda_min == 1.0 and est.constant_C == 1.0 and est.residual == 0.0

    def test_a_comb_assembles_no_dense_form(self, monkeypatch):
        # one Gram matrix, of the distinct class offsets (fewer than the
        # bins), which takes the closed form itself when it needs it
        sizes, inside = [], []
        gram_entries, closed_form = conc._gram_entries, conc._closed_form

        def spy(freqs, *rest):
            sizes.append(len(freqs))
            inside.append(True)
            try:
                return gram_entries(freqs, *rest)
            finally:
                inside.pop()

        def closed_spy(*args):
            if not inside:
                pytest.fail("a closed form outside the Gram kernel")
            return closed_form(*args)

        def refuse(*args, **kwargs):
            pytest.fail("a dense form was solved")

        monkeypatch.setattr(conc, "_gram_entries", spy)
        monkeypatch.setattr(conc, "_closed_form", closed_spy)
        monkeypatch.setattr(conc, "hermitian_eigensystem", refuse)
        for E, profile, grid in (
            (periodic_comb(0.5, 1.0, (0.0, 128.0)), (0.0, 8.0), Grid(128.0, 4096)),
            (periodic_comb(Fraction(3, 16), 2, (0, 64)), (0.0, 1.0), Grid(64.0, 256)),
            (periodic_comb(0.5, 1.0, (0.0, 256.0)), SpectralProfile(Sequence((2, 4, 8, 16))),
             Grid(256.0, 16384)),
        ):
            sizes.clear()
            est = ls_constant(E, profile, grid)
            assert len(sizes) == 1 and sizes[0] < grid.band_bins(profile).size
            assert 0 < est.lambda_min <= E.measure / grid.period

    def test_other_sets_take_the_dense_path(self, monkeypatch):
        sizes = []
        gram_entries = conc._gram_entries

        def spy(freqs, *rest):
            sizes.append(len(freqs))
            return gram_entries(freqs, *rest)

        monkeypatch.setattr(conc, "_gram_entries", spy)
        grid = Grid(8.0, 256)
        comb = periodic_comb(0.5, 1.0, (0.0, 8.0))
        ls_constant(comb, (0.0, 1.0), grid)
        assert sizes == [2]  # the class offsets 0 and 1 of the bins 0 and 8 mod 8
        # a union, the comb rebuilt from its intervals or from its record,
        # and a comb whose blocks do not tile the grid period
        off_period = periodic_comb(0.5, 1.0, (0.0, 8.0 + 5e-10))
        for E, T in ((ThickSet(((0.0, 1.0), (3.0, 5.5)), (0.0, 8.0)), 8.0),
                     (ThickSet(comb.intervals, comb.window, True), 8.0),
                     (ThickSet.from_dict(comb.to_dict()), 8.0),
                     (off_period, 8.0 + 5e-10)):
            ls_constant(E, (0.0, 1.0), Grid(T, 256))
        assert sizes == [2, 9, 9, 9, 9]

    def test_the_cap_is_on_every_bin(self, monkeypatch):
        def refuse(*args, **kwargs):
            pytest.fail("a block was assembled")

        monkeypatch.setattr(conc, "MAX_DENSE_DIM", 8)
        monkeypatch.setattr(conc, "_gram_entries", refuse)
        # 9 bins in classes of at most 2 mod 8
        with pytest.raises(ValueError, match="^dimension 9 exceeds the dense solver cap 8$"):
            ls_constant(periodic_comb(0.5, 1.0, (0.0, 8.0)), (0.0, 1.0), Grid(8.0, 256))

    def test_the_comb_checks_hold(self):
        E = periodic_comb(0.5, 1.0, (0.0, 8.0))
        with pytest.raises(ValueError, match="window"):
            ls_constant(periodic_comb(0.5, 1.0, (0.0, 4.0)), (0.0, 1.0), Grid(8.0, 256))
        with pytest.raises(ValueError, match="Nyquist"):
            ls_constant(E, (0.0, 4.0), Grid(8.0, 32))


def class_view(comb, bins):
    """``_comb_eigenpair``'s (lambda_min, residual) and D17's class view of
    it: the least eigenvalue by ``np.linalg.eigh`` over the residue classes
    of the bins mod M of the torus Gram matrix (``gram_matrix``) of the
    class's offsets from its first bin over [w0, w0 + fill] / delta, the
    largest |eigenvalue| of them, and whether every class of two or more
    offsets took the form, closed or endpoint, that the one table of
    ``_comb_eigenpair`` took.  The classes are visited in
    ``_comb_eigenpair``'s order, by size and then by residue, and the first
    least value is kept, so that a tie of -0.0 and +0.0 keeps its sign."""
    M = comb.blocks
    E = ThickSet(((comb.start / comb.delta, (comb.start + comb.fill) / comb.delta),), (0, 1))
    classes = sorted((np.sort(bins[bins % M == r]) for r in np.unique(bins % M)), key=len)
    with mock.patch.object(conc, "_endpoint_form", wraps=conc._endpoint_form) as spy:
        got = conc._comb_eigenpair(comb, bins)
        table_form = spy.called
        least, norm, same = math.inf, 0.0, True
        for members in classes:
            spy.reset_mock()
            vals = np.linalg.eigh(gram_matrix(E, Sequence(tuple((members - members[0]) // M)))
                                  .entries)[0]
            if vals[0] < least:
                least = float(vals[0])
            norm = max(norm, float(np.max(np.abs(vals))))
            same &= members.size == 1 or spy.called == table_form
    return got, least, norm, same


@st.composite
def class_cases(draw):
    """A comb on [0, T], T <= 256, of blocks of width 1/2, 1 or 2, full or
    of an exact or float fill, and the bins of a band or a geometric
    profile."""
    delta = draw(st.sampled_from([Fraction(1, 2), 1, 2]))
    T = delta * draw(st.integers(1, int(256 / delta)))
    fill = draw(st.sampled_from(["full", "exact", "float"]))
    if fill == "full":
        E = periodic_comb(1, delta, (0, T))
    elif fill == "exact":
        q = draw(st.integers(1, 64))
        E = periodic_comb(Fraction(draw(st.integers(1, q)), q), delta, (0, T))
    else:
        gamma = draw(st.floats(0.0, 1.0, exclude_min=True))
        E = periodic_comb(gamma, float(delta), (0.0, float(T)))
        assume(E.measure > 0)
    if draw(st.booleans()):
        lo = draw(st.integers(-4, 4))
        profile = (float(lo), lo + draw(st.floats(0.5, 4.0)))
    else:
        start, ratio = draw(st.integers(2, 4)), draw(st.integers(2, 4))
        count = draw(st.integers(1, 3))
        profile = SpectralProfile(Sequence(tuple(start * ratio**k for k in range(count))))
    try:
        bins = Grid(float(T), 2**24).band_bins(profile)
    except ValueError:  # a band narrower than the bin spacing 1/T
        assume(False)
    assume(bins.size <= 800)
    return E.comb, bins


class TestClassGather:
    @given(class_cases())
    @example((periodic_comb(Fraction(5, 16), 2, (0, 64)).comb,
              Grid(64.0, 256).band_bins((0.0, 1.0))))
    @example((periodic_comb(1, Fraction(1, 2), (0, 256)).comb,
              Grid(256.0, 2**16).band_bins(SpectralProfile(Sequence((2, 8, 32))))))
    # bands that start off a multiple of M: classes of one size in several patterns
    @example((periodic_comb(Fraction(3, 4), Fraction(1, 2), (0, 14)).comb,
              Grid(14.0, 2048).band_bins(SpectralProfile(Sequence((3, 12, 48))))))
    # a subnormal fill: the class of 4 offsets reads -0.0 and that of 5 +0.0
    @example((periodic_comb(1e-323, 1.0, (0.0, 2.0)).comb,
              Grid(2.0, 2**24).band_bins((0.0, 4.0))))
    @settings(max_examples=150, deadline=None)
    def test_blocks_are_the_torus_grams_of_the_classes(self, case):
        # bit for bit where a class's Gram takes the table's form (a single
        # offset has the same diagonal in both), within the bound of
        # TestCombClasses otherwise
        comb, bins = case
        (lam, residual), least, norm, same = class_view(comb, bins)
        if same:
            assert lam.hex() == least.hex()
        else:
            assert abs(lam - least) <= 4 * EPS * (bins.size * norm + comb.blocks)
        assert residual <= conc.EIG_RESIDUAL_TOL * norm

    def test_wide_bins_cost_memory_in_their_count(self):
        # one block (M = 1) under the bands 2^k, k = 1..23: 46 bins spread
        # over about 2^23, so a table over the whole range of differences would
        # hold 2^23 entries; the table of the class offsets holds n^2
        E = periodic_comb(0.5, 1, (0, 1))
        profile = SpectralProfile(Sequence(tuple(2**k for k in range(1, 24))))
        grid = Grid(1.0, 2**26)
        bins = grid.band_bins(profile)
        n = bins.size
        assert E.comb.blocks == 1 and n == 46 and bins.max() - bins.min() > 2**22
        (lam, _), least, _, same = class_view(E.comb, bins)
        assert same and lam == least
        tracemalloc.start()
        try:
            est = ls_constant(E, profile, grid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert est.lambda_min == lam
        assert peak <= 10 * 16 * n**2  # measured 4.3 n^2 complex entries

    def test_one_eigh_per_class_size(self, monkeypatch):
        # 128 classes of the bins 0..1024: the class of 0 holds 9 of them,
        # each other class 8, and each size repeats one pattern
        shapes = []
        eigh = np.linalg.eigh

        def spy(a):
            shapes.append(a.shape)
            return eigh(a)

        monkeypatch.setattr(np.linalg, "eigh", spy)
        ls_constant(periodic_comb(0.5, 1.0, (0.0, 128.0)), (0.0, 8.0), Grid(128.0, 4096))
        assert shapes == [(1, 8, 8), (1, 9, 9)]


def solve_spy(monkeypatch):
    """The right-hand side of every np.linalg.solve call, in call order."""
    rhs = []
    solve = np.linalg.solve

    def spy(a, b):
        rhs.append(b.copy())
        return solve(a, b)

    monkeypatch.setattr(np.linalg, "solve", spy)
    return rhs


@st.composite
def eigen_cases(draw):
    """A random Hermitian matrix scaled by 10^-100 to 10^100, or the Gram
    matrix over random torus intervals of a random integer list, an
    arithmetic progression (clustered spectra) or a greedy prefix."""
    n = draw(st.integers(1, 60))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["hermitian", "random", "progression", "greedy"]))
    if kind == "hermitian":
        a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        return HermitianForm(n, (a + a.conj().T) * 10.0 ** draw(st.integers(-100, 100)), {})
    E = random_torus_set(rng, pieces=draw(st.integers(1, 5)))
    if kind == "random":
        freqs = sorted(int(f) for f in rng.choice(10**6, n, replace=False))
    elif kind == "progression":
        freqs = range(0, draw(st.integers(1, 3)) * n, draw(st.integers(1, 3)))[:n]
    else:
        freqs = build_greedy(n).values
    assume(len(freqs) == n)
    return gram_matrix(E, Sequence(tuple(freqs)))


class TestEigensystem:
    def test_dimension_cap(self):
        m = np.eye(2001)
        with pytest.raises(ValueError, match="cap"):
            hermitian_eigensystem(HermitianForm(2001, m, {}))

    def test_one_cap_before_assembly(self, monkeypatch):
        def refuse(*args, **kwargs):
            pytest.fail("the form was assembled")

        monkeypatch.setattr(conc, "MAX_DENSE_DIM", 2)
        form = HermitianForm(3, np.eye(3), {})  # as read from a file
        for name in ("_gram_entries", "_closed_form", "_end_numerators"):
            monkeypatch.setattr(conc, name, refuse)
        E = ThickSet(((0.0, 4.0),), (0.0, 4.0))
        half = ThickSet(((0.0, 0.5),), (0.0, 1.0))
        # (0, 1, 2) takes the closed form, (0, 1, 3) the endpoint form
        for call in (lambda: nazarov_constant(half, Sequence((0, 1, 2))),
                     lambda: nazarov_constant(half, Sequence((0, 1, 3))),
                     lambda: ls_constant(E, (0.0, 0.5), Grid(4.0, 64)),
                     lambda: hermitian_eigensystem(form)):
            with pytest.raises(ValueError, match="^dimension 3 exceeds the dense solver cap 2$"):
                call()

    def test_residual_reported(self):
        G = gram_matrix(ThickSet(((0.0, 0.5),), (0.0, 1.0)), Sequence((0, 1, 2)))
        vals, v, residual = hermitian_eigensystem(G)
        assert residual <= 1e-10
        assert list(vals) == sorted(vals)
        assert residual == np.linalg.norm(G.entries @ v - vals[0] * v)

    @given(eigen_cases())
    @settings(max_examples=150, deadline=None)
    def test_least_pair_matches_eigh(self, form):
        # over 3000 seeded cases of these kinds |delta lambda_0| peaked at
        # 0.98 n eps ||G||, the residual at 3.1e-15 ||G|| and the Rayleigh
        # quotient's distance to lambda_0, past the residual, at 0.93 n eps ||G||
        G, n = form.entries, form.dimension
        vals, v, residual = hermitian_eigensystem(form)
        want = np.linalg.eigh(G)[0]
        norm = max(-want[0], want[-1])
        np.testing.assert_array_equal(vals, np.linalg.eigvalsh(G))
        assert abs(vals[0] - want[0]) <= 4 * n * EPS * norm
        assert residual <= conc.EIG_RESIDUAL_TOL * norm
        assert residual == np.linalg.norm(G @ v - vals[0] * v)
        assert abs(np.linalg.norm(v) - 1) <= 4 * EPS
        assert abs(np.vdot(v, G @ v).real - vals[0]) <= residual + 4 * n * EPS * norm

    def test_a_clustered_progression_meets_the_contract_at_rounding_size(self, monkeypatch):
        # from an all-ones start vector one solve left 2.6e-8 ||G|| here
        solves = solve_spy(monkeypatch)
        form = gram_matrix(ThickSet(((0, Fraction(1, 8)),), (0, 1)), Sequence(tuple(range(80))))
        vals, v, residual = hermitian_eigensystem(form)
        assert len(solves) == 2
        assert residual <= 8 * EPS * vals[-1]
        assert abs(vals[0] - np.linalg.eigh(form.entries)[0][0]) <= 80 * EPS * vals[-1]

    def test_one_solve_fails_from_a_start_nearly_orthogonal_to_v(self, monkeypatch):
        # G has the eigenvector v = w + 1e-9 b of its least eigenvalue, w
        # orthogonal to the start vector b: the first iterate keeps about
        # (eps ||G|| / 1e-9) of the other components, past the contract
        n = 40
        solves = solve_spy(monkeypatch)
        hermitian_eigensystem(HermitianForm(n, np.eye(n), {}))
        assert len(solves) == 1  # the identity stops after one solve, at residual 0
        b = solves[0] / np.linalg.norm(solves[0])
        rng = np.random.default_rng(2)
        q, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
        w = q[:, 0] - np.vdot(b, q[:, 0]) * b
        basis, _ = np.linalg.qr(np.column_stack((w / np.linalg.norm(w) + 1e-9 * b, q[:, 1:])))
        G = basis @ np.diag(np.linspace(0.1, 1.0, n)) @ basis.conj().T
        form = HermitianForm(n, (G + G.conj().T) / 2, {})
        solves.clear()
        vals, v, residual = hermitian_eigensystem(form)
        first = solves[1]  # the first iterate, normalized, is the second right-hand side
        assert len(solves) == 2
        assert np.linalg.norm(form.entries @ first - vals[0] * first) > conc.EIG_RESIDUAL_TOL
        assert residual <= n * EPS

    def test_a_nan_residual_breaks_the_contract(self, monkeypatch):
        monkeypatch.setattr(np.linalg, "solve", lambda a, b: np.full_like(b, np.nan))
        with pytest.raises(NumericalError, match="residual nan exceeds"), \
                np.errstate(invalid="ignore"):
            hermitian_eigensystem(HermitianForm(3, np.diag([1.0, 2.0, 3.0]), {}))

    def test_a_singular_shift_is_doubled(self, monkeypatch):
        shifts = []
        solve = np.linalg.solve

        def singular_once(a, b):
            shifts.append(1.0 - a[0, 0].real)  # sigma, on the identity
            if len(shifts) == 1:
                raise np.linalg.LinAlgError("Singular matrix")
            return solve(a, b)

        monkeypatch.setattr(np.linalg, "solve", singular_once)
        vals, v, residual = hermitian_eigensystem(HermitianForm(5, np.eye(5), {}))
        assert shifts == [1.0 - EPS, 1.0 - 2 * EPS] and residual == 0.0

    @pytest.mark.parametrize("entries, least", [
        (np.array([[5e-324]]), 5e-324),  # a shift of n eps ||G|| underflows to 0 here
        (np.zeros((3, 3)), 0.0),
        (np.eye(72), 1.0),
        (np.array([[-2.5]]), -2.5),
        (np.array([[0.3]]), 0.3),
    ], ids=["subnormal", "zero", "identity", "n1_negative", "n1"])
    def test_tiny_zero_identity_and_one_by_one(self, entries, least):
        vals, v, residual = hermitian_eigensystem(HermitianForm(len(entries), entries, {}))
        assert vals[0] == least and residual == 0.0
        assert np.isfinite(v).all() and abs(np.linalg.norm(v) - 1) <= 4 * EPS

    @pytest.mark.parametrize("scale", [1e200, 1e-200])
    def test_residual_of_a_huge_or_tiny_form(self, scale):
        # at 1e200 ||G v - lambda v||^2 overflowed to inf (squares past
        # 1e308) and the form was refused; scaled by a power of two it is not
        rng = np.random.default_rng(3)
        A = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        A = A + A.conj().T
        vals, v, residual = hermitian_eigensystem(HermitianForm(6, A * scale, {}))
        unit_vals, _, unit_residual = hermitian_eigensystem(HermitianForm(6, A, {}))
        norm = max(-vals[0], vals[-1])
        assert residual <= 8 * EPS * norm
        assert vals[0] / scale == pytest.approx(unit_vals[0], rel=1e-14)
        if scale > 1:
            assert residual / scale == pytest.approx(unit_residual, abs=8 * EPS * norm / scale)

    @pytest.mark.parametrize("scale", [1.0, 1e200, 1e-200])
    def test_a_real_form_is_solved_in_real_arithmetic(self, scale):
        # as a complex Hermitian form of the same entries, to rounding
        rng = np.random.default_rng(4)
        A = rng.standard_normal((7, 7))
        A = (A + A.T) * scale
        vals, v, residual = conc._least_eigenpair(A)
        want, _, _ = hermitian_eigensystem(HermitianForm(7, A, {}))
        norm = max(-vals[0], vals[-1])
        assert v.dtype == np.float64
        np.testing.assert_array_equal(vals, np.linalg.eigvalsh(A))
        assert abs(vals[0] - want[0]) <= 4 * 7 * EPS * norm
        assert residual <= 8 * EPS * norm
        assert residual / scale == pytest.approx(
            np.linalg.norm((A / scale) @ v - (vals[0] / scale) * v), abs=8 * EPS * norm / scale)

    def test_comb_residual_of_a_huge_form(self, monkeypatch):
        # the class blocks of a comb take the same residual as a dense form
        closed_form = conc._closed_form
        monkeypatch.setattr(conc, "_closed_form", lambda *a: closed_form(*a) * 1e200)
        est = ls_constant(periodic_comb(0.5, 1.0, (0.0, 8.0)), (2.0, 5.0), Grid(8.0, 256))
        assert math.isfinite(est.residual) and est.residual <= 1e-10 * 1e200

    def test_the_torus_and_dense_constants_call_no_eigh(self, monkeypatch):
        # no eigenbasis of an n x n form: the Lanczos kernel solves its k x k
        # tridiagonal matrix alone, k at most its budget n // 4
        sizes = []
        eigh = np.linalg.eigh

        def tridiagonal_only(a, *args, **kwargs):
            k = a.shape[-1]
            if a.ndim != 2 or k > 200 // conc._LANCZOS_SHARE or np.tril(a, -2).any():
                pytest.fail("np.linalg.eigh was called on a form")
            sizes.append(k)
            return eigh(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", tridiagonal_only)
        E = random_torus_set(np.random.default_rng(5))
        assert 0 < nazarov_constant(E, build_greedy(50)).lambda_min < 1
        assert not sizes  # the fallback, eigvalsh and inverse iteration
        assert 0 < nazarov_constant(E, build_greedy(200)).lambda_min < 1
        assert sizes and max(sizes) < 200
        sizes.clear()
        union = ThickSet(((0.0, 1.0), (3.0, 5.5)), (0.0, 8.0))
        assert 0 < ls_constant(union, (0.0, 2.0), Grid(8.0, 256)).lambda_min < 1
        assert not sizes


def solved_form(E, seq):
    """nazarov_constant's estimate and the matrix it hands ``_least_value``:
    the real Gram matrix of the centred interval on one interval, the Gram
    matrix on more."""
    forms = []
    least_value = conc._least_value
    with mock.patch.object(conc, "_least_value", lambda G: forms.append(G) or least_value(G)):
        est = nazarov_constant(E, seq)
    return est, forms[0]


def cholesky_spy(monkeypatch):
    """True for each np.linalg.cholesky call that factors its matrix, False
    for each that raises, in call order."""
    outcomes = []
    cholesky = np.linalg.cholesky

    def spy(a):
        try:
            factor = cholesky(a)
        except np.linalg.LinAlgError:
            outcomes.append(False)
            raise
        outcomes.append(True)
        return factor

    monkeypatch.setattr(np.linalg, "cholesky", spy)
    return outcomes


@st.composite
def lanczos_cases(draw):
    """A torus set of one to six intervals (float ends) and a list long
    enough for the Lanczos kernel: a greedy prefix, paired powers, an
    arithmetic progression or random integers, 96 to 240 terms."""
    cuts = sorted(draw(st.lists(st.floats(0.0, 1.0), min_size=2, max_size=12, unique=True)))
    E = ThickSet(tuple(zip(cuts[0::2], cuts[1::2])), (0.0, 1.0))
    n = draw(st.integers(96, 240))
    kind = draw(st.sampled_from(["greedy", "pairs", "progression", "random"]))
    if kind == "greedy":
        freqs = build_greedy(240).values[:n]
    elif kind == "pairs":
        freqs = build_counterexample(n // 2).values
    elif kind == "progression":
        freqs = tuple(range(draw(st.integers(-50, 50)), 10**4, draw(st.integers(1, 5))))[:n]
    else:
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        freqs = tuple(sorted(int(f) for f in rng.choice(10**6, n, replace=False)))
    return E, Sequence(freqs)


class TestLanczosKernel:
    """``nazarov_constant``'s least eigenpair: Lanczos with a Cholesky
    certificate (``_lanczos_pair``), or the eigvalsh route where it falls
    back."""

    @given(lanczos_cases())
    @settings(max_examples=60, deadline=None)
    @example(case=(random_torus_set(np.random.default_rng(5), 4), build_greedy(200)))
    @example(case=(ThickSet(((0.0, 0.3),), (0, 1)), Sequence(tuple(range(200)))))
    def test_within_the_certified_bound_of_eigvalsh(self, case):
        E, seq = case
        est, G = solved_form(E, seq)
        n = len(seq)
        vals = np.linalg.eigvalsh(G)
        norm = float(max(-vals[0], vals[-1]))
        lam, residual = conc._least_value(G)
        assert abs(lam - vals[0]) <= 4 * n * EPS * norm
        assert residual <= conc.EIG_RESIDUAL_TOL * norm
        assert (est.lambda_min, est.residual) == (max(lam, 0.0) + 0.0, residual)
        found = conc._lanczos_pair(G, n // conc._LANCZOS_SHARE)
        if found is None:  # the fallback: the eigvalsh route's eigenvalue and residual
            old, _, old_residual = conc._least_eigenpair(G)
            assert (lam, residual) == (float(old[0]), old_residual)
        else:
            assert (lam, residual) == found

    @given(one_interval_cases(max_terms=12), st.integers(1, 3))
    @settings(max_examples=40, deadline=None)
    def test_matches_an_exact_eigensolve(self, case, pieces):
        # the kernel itself at a full budget of n steps, on the Gram matrix
        # of one to three intervals, against 50 digits of the least
        # eigenvalue of the same floating-point entries
        mpmath = pytest.importorskip("mpmath")
        (a, b), = case[0].intervals
        seq, n = case[1], len(case[1])
        cuts = [a + (b - a) * Fraction(k, 2 * pieces) for k in range(2 * pieces)]
        intervals = tuple(zip(cuts[0::2], cuts[1::2]))
        assume(all(hi > lo for lo, hi in intervals))
        G = gram_matrix(ThickSet(intervals, (0, 1)), seq).entries
        found = conc._lanczos_pair(G, n)
        with mpmath.workdps(50):
            exact = mpmath.eighe(mpmath.matrix([[mpmath.mpc(z.real, z.imag) for z in row]
                                                for row in G]), eigvals_only=True)
            least, norm = float(min(exact)), float(max(abs(x) for x in exact))
        if found is None:  # only a nearly singular G, where the factorization's rounding decides
            assert least <= 4 * n * EPS * norm
        else:
            assert abs(found[0] - least) <= 4 * n * EPS * norm

    @pytest.mark.parametrize("seq", [build_counterexample(60), build_counterexample(100),
                                     build_greedy(300)], ids=["K60", "K100", "greedy300"])
    def test_the_full_torus_is_exactly_one(self, monkeypatch, seq):
        dtypes = eigvalsh_spy(monkeypatch)
        for E in (ThickSet(((0, 1),), (0, 1)), ThickSet(((0.0, 1.0),), (0.0, 1.0))):
            est = nazarov_constant(E, seq)
            assert est.lambda_min == 1.0 and est.residual == 0.0
        assert not dtypes  # certified by the kernel, no fallback

    @pytest.mark.parametrize("E, seq", [
        (random_torus_set(np.random.default_rng(6), 6), Sequence(tuple(range(200)))),
        (ThickSet(((0.0, 0.05),), (0, 1)), build_greedy(150)),
        (ThickSet(((0.0, 0.01),), (0, 1)), build_greedy(150)),
    ], ids=["progression_six_intervals", "greedy_width_0.05", "greedy_width_0.01"])
    def test_a_fallback_keeps_the_bits_of_the_eigvalsh_route(self, monkeypatch, E, seq):
        # a progression over several intervals, and a greedy list on a
        # narrow interval, decay too slowly and stop at the third check
        found, kernel = [], conc._lanczos_pair
        monkeypatch.setattr(conc, "_lanczos_pair",
                            lambda G, budget: found.append(kernel(G, budget)) or found[-1])
        est, G = solved_form(E, seq)
        vals, _, residual = conc._least_eigenpair(G)
        assert found == [None]
        assert est.lambda_min == max(float(vals[0]), 0.0) and est.residual == residual

    def test_the_certificate_catches_a_start_orthogonal_to_the_least_eigenvector(
            self, monkeypatch):
        # G's least eigenvector w is orthogonal to the start vector b, so the
        # steps converge on the next eigenvalue 0.2; the Cholesky
        # factorization of G - (0.2 - 4 n eps ||G||) I fails on 0.1 - 0.2 < 0,
        # and the fallback finds 0.1
        n = 120
        outcomes = cholesky_spy(monkeypatch)
        b = conc._start_vector(np.zeros((n, n), dtype=complex))
        b /= np.linalg.norm(b)
        rng = np.random.default_rng(2)
        q, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
        w = q[:, 0] - np.vdot(b, q[:, 0]) * b
        basis, _ = np.linalg.qr(np.column_stack((w / np.linalg.norm(w), q[:, 1:])))
        spectrum = np.concatenate(([0.1, 0.2], np.linspace(0.99, 1.0, n - 2)))
        G = basis @ np.diag(spectrum) @ basis.conj().T
        G = (G + G.conj().T) / 2
        assert conc._lanczos_pair(G, n // conc._LANCZOS_SHARE) is None
        assert outcomes == [False]  # converged, then refused by the certificate
        lam, residual = conc._least_value(G)
        vals, _, old_residual = conc._least_eigenpair(G)
        assert (lam, residual) == (float(vals[0]), old_residual)
        assert abs(lam - 0.1) <= 4 * n * EPS and residual <= conc.EIG_RESIDUAL_TOL

def cell_weights_oracle(grid, intervals):
    """Measure of each cell [x_j, x_{j+1}) inside the intervals, cell by cell."""
    h = grid.spacing
    return np.array([
        sum(max(0.0, min(b, (j + 1) * h) - max(a, j * h)) for a, b in intervals)
        for j in range(grid.samples)
    ])


def gauss_legendre(intervals, bandwidth, nodes=24):
    """Nodes and weights of a Gauss-Legendre rule of ``nodes`` points on each
    piece of the intervals cut at most 1/bandwidth long: a frequency within
    bandwidth turns at most once on a piece, so the rule integrates the
    trigonometric polynomials of such frequencies to rounding."""
    x0, w0 = np.polynomial.legendre.leggauss(nodes)
    xs, ws = [np.empty(0)], [np.empty(0)]
    for a, b in intervals:
        edges = np.linspace(float(a), float(b), int(math.ceil((b - a) * bandwidth)) + 2)
        for lo, hi in zip(edges[:-1], edges[1:]):
            xs.append((hi - lo) / 2 * x0 + (hi + lo) / 2)
            ws.append((hi - lo) / 2 * w0)
    return np.concatenate(xs), np.concatenate(ws)


def on_points(f, x):
    """f and f' at the points x, by direct sums over the kept bins of f."""
    k = f.grid.frequencies(f.bins)
    phases = np.exp(2j * np.pi * np.outer(x, k))
    return phases @ f.coeffs, phases @ (f.coeffs * (2j * np.pi * k))


def clipped(E, interval):
    i0, i1 = interval
    return [(max(float(a), i0), min(float(b), i1)) for a, b in E.intervals
            if min(float(b), i1) > max(float(a), i0)]


def lemma_oracle(f_list, seq, E, interval):
    """The three lemma terms by Gauss-Legendre quadrature over I ∩ E and I:
    f_n and f_n' sampled at its nodes by direct sums, F modulated sample by
    sample by np.exp."""
    top = max(abs(float(lam)) for lam in seq.values) + max(
        (np.abs(f.grid.frequencies(f.bins)).max() for f in f_list if f.bins.size), default=0)
    x, w = gauss_legendre(clipped(E, interval), 2 * top + 1)
    F = sum(on_points(f, x)[0] * np.exp(2j * np.pi * float(lam) * x)
            for f, lam in zip(f_list, seq.values))
    x, w_i = gauss_legendre([interval], 2 * top + 1)
    values = [on_points(f, x) for f in f_list]
    sq = sum(np.abs(v) ** 2 for v, _ in values)
    sob = sum(np.abs(dv) ** 2 for _, dv in values)
    return (np.sum(w * np.abs(F) ** 2), np.sum(w_i * sq), np.sum(w_i * (sq + sob)))


def assert_terms_match_oracle(f_list, seq, E, interval, L, rel=1e-12):
    rec = lemma_main_report(f_list, seq, E, interval, L)
    got = (rec.lhs, rec.term_density, rec.term_sobolev)
    for value, oracle in zip(got, lemma_oracle(f_list, seq, E, interval)):
        assert value == pytest.approx(oracle, rel=rel, abs=0)


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


def mp_integral(integrand, intervals):
    """The integral of a function of an mpf over the intervals, at the
    working precision, by mpmath's Gauss-Legendre quadrature on pieces of
    length at most 1/2."""
    mpmath = pytest.importorskip("mpmath")
    total = mpmath.mpf(0)
    for a, b in intervals:
        a, b = mpmath.mpf(float(a)), mpmath.mpf(float(b))
        total += mpmath.quad(integrand, mpmath.linspace(a, b, int(math.ceil(2 * (b - a))) + 1),
                             method="gauss-legendre")
    return total


def mp_terms(f, lam, derivative=False):
    """The terms (c_i (2 pi i nu_i)^derivative, nu_i + lam) of f, or of f',
    modulated by lam, in mpmath: nu_i = k_i/T over its bins k_i."""
    mpmath = pytest.importorskip("mpmath")
    T = mpmath.mpf(f.grid.period)
    nus = [k / T for k in f.grid.signed_bins(f.bins).tolist()]
    return [(mpmath.mpc(c) * (2j * mpmath.pi * nu if derivative else 1), nu + lam)
            for nu, c in zip(nus, f.coeffs.tolist())]


def mp_power(terms):
    """x -> |sum_i a_i e^{2 pi i nu_i x}|^2 over the terms (a_i, nu_i)."""
    mpmath = pytest.importorskip("mpmath")
    return lambda x: abs(sum(a * mpmath.expjpi(2 * nu * x) for a, nu in terms)) ** 2


@st.composite
def small_lemma_cases(draw):
    """Two or fewer unit-band functions on a coarse grid, modulated on or
    just off their bins, a window I of length 1/L anywhere in [0, T], and a
    comb or a union of intervals."""
    T = draw(st.sampled_from([2.0, 4.0]))
    grid = Grid(T, 64)
    bins = sorted(draw(st.lists(st.integers(-12, 12), min_size=1, max_size=2, unique=True)))
    off = draw(st.sampled_from([0.0, 1e-11]))
    seq = Sequence(tuple(k / T + off for k in bins))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    fs = [random_band_function(grid, rng, draw(st.sampled_from([(0.0, 1.0), (-1.0, 0.0)])))
          for _ in bins]
    L = draw(st.sampled_from([1, 2, 4]))
    start = draw(st.integers(0, int(T) * L - 1)) / L
    if draw(st.booleans()):
        E = periodic_comb(draw(st.sampled_from([0.25, 0.5, 1 / 3])),
                          draw(st.sampled_from([0.5, 1.0])), (0.0, T))
    else:
        cuts = sorted(draw(st.lists(st.integers(0, int(T) * 8), min_size=2, max_size=6,
                                    unique=True)))
        E = ThickSet(tuple((a / 8, b / 8) for a, b in zip(cuts[0::2], cuts[1::2])), (0.0, T))
    return fs, seq, E, (start, start + 1 / L), L


class TestLemmaReport:
    @given(small_lemma_cases())
    @settings(max_examples=25, deadline=None)
    def test_terms_match_50_digit_quadrature(self, case):
        mpmath = pytest.importorskip("mpmath")
        fs, seq, E, interval, L = case
        rec = lemma_main_report(fs, seq, E, interval, L)
        with mpmath.workdps(50):
            lams = [mpmath.mpf(float(lam)) for lam in seq.values]
            lhs = mp_integral(mp_power([t for f, lam in zip(fs, lams) for t in mp_terms(f, lam)]),
                              clipped(E, interval))
            density, derivative = (
                sum(mp_integral(mp_power(mp_terms(f, 0, d)), [interval]) for f in fs)
                for d in (False, True))
        scale = float(density)
        assert rec.lhs == pytest.approx(float(lhs), rel=1e-13, abs=1e-15 * scale)
        assert rec.term_density == pytest.approx(scale, rel=1e-13)
        assert rec.term_sobolev == pytest.approx(float(density + derivative), rel=1e-13)

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

    @pytest.mark.parametrize("L, start", [(4, 0.0), (1, 2.3), (16, 2.3), (128, 0.0)])
    def test_dense_and_zero_functions_match_the_oracle(self, monkeypatch, L, start):
        # two dense spectra of ~2040 bins each: A and their D hold more than
        # S entries and are never built; the only transforms are those of
        # the correlations past the cap, two forward and one inverse each
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
        sizes, correlations = fft_spy(monkeypatch), []
        correlate = conc._correlate_rows
        monkeypatch.setattr(conc, "_correlate_rows",
                            lambda a, b: correlations.append(a.shape) or correlate(a, b))
        lemma_main_report(fs, seq, E, (start, start + 1 / L), L)
        assert correlations and len(sizes) == 3 * len(correlations)
        assert_terms_match_oracle(fs, seq, E, (start, start + 1 / L), L, rel=1e-11)

    def test_trials_transform_no_array_of_the_grid(self, monkeypatch):
        grid = Grid(16.0, 16384)
        E = periodic_comb(0.5, 1.0, (0.0, 16.0))
        sizes = fft_spy(monkeypatch)
        lemma_trials(Sequence((4, 16, 64)), E, grid, 8, 7, 3)
        assert grid.samples not in sizes
        random_band_function(grid, np.random.default_rng(0)).values  # the spy sees a transform
        assert sizes[-1] == grid.samples

    def test_window_and_its_intersection_with_the_set(self):
        grid = Grid(4.0, 64)
        E = ThickSet(((0.1, 0.73), (1.0, 1.0625), (2.5, 4.0)), (0.0, 4.0))
        inside = [(0.1, 0.73), (1.0, 1.0625), (2.5, 2.75)]
        assert _lemma_window(E, grid, (0.0, 2.75)) == ([(0.0, 2.75)], inside)
        assert _lemma_window(E, grid, (0.73, 1.0)) == ([(0.73, 1.0)], [])  # touching ends only
        rng = np.random.default_rng(4)
        for period, samples in ((7.9999999999, 100), (3.0, 7)):
            grid = Grid(period, samples)
            for _ in range(20):
                cuts = np.sort(rng.uniform(0, period, 6))
                E = ThickSet(tuple(zip(cuts[::2], cuts[1::2])), (0.0, period))
                lo, hi = np.sort(rng.uniform(0, period, 2))
                if E.measure > 0:
                    assert _lemma_window(E, grid, (lo, hi))[1] == clipped(E, (lo, hi))

    def test_window_missing_the_set_has_no_lhs(self):
        grid = Grid(4.0, 64)
        E = ThickSet(((0.0, 1.0), (3.0, 4.0)), (0.0, 4.0))
        f = random_band_function(grid, np.random.default_rng(1))
        rec = lemma_main_report([f], Sequence((1,)), E, (1.5, 2.5), 1)
        assert rec.lhs == 0.0 and 0 < rec.term_density < rec.term_sobolev

    def test_sampled_terms_converge_as_one_over_s(self):
        # a left-endpoint rule over the cells of the grid, the cell weights
        # kept here, approaches the exact terms as 1/S: a guard on the
        # orientation and the scale of the closed forms
        T, L = 16.0, 1
        E_of = lambda grid: periodic_comb(0.5, 1.0, (0.0, T))
        seq = Sequence((2, 6, 18))
        rng = np.random.default_rng(8)
        coeffs = [rng.standard_normal(17) + 1j * rng.standard_normal(17) for _ in seq.values]
        errors = []
        for S in (2**12, 2**13, 2**14, 2**15):
            grid = Grid(T, S)
            fs = [BandFunction(grid, np.arange(17), c, (0.0, 1.0)) for c in coeffs]
            E = E_of(grid)
            rec = lemma_main_report(fs, seq, E, (0.0, 1.0 / L), L)
            x = grid.points()
            w_i = cell_weights_oracle(grid, [(0.0, 1.0 / L)])
            w_e = cell_weights_oracle(grid, clipped(E, (0.0, 1.0 / L)))
            J = np.flatnonzero(w_i)
            values = [on_points(f, x[J]) for f in fs]
            F = sum(v * np.exp(2j * np.pi * lam * x[J]) for (v, _), lam in zip(values, seq.values))
            sq = sum(np.abs(v) ** 2 for v, _ in values)
            sob = sq + sum(np.abs(dv) ** 2 for _, dv in values)
            sampled = (np.sum(w_e[J] * np.abs(F) ** 2), np.sum(w_i[J] * sq), np.sum(w_i[J] * sob))
            exact = (rec.lhs, rec.term_density, rec.term_sobolev)
            errors.append([abs(a - b) / b for a, b in zip(sampled, exact)])
        errors = np.array(errors)
        assert errors[-1].max() < 1e-2
        np.testing.assert_array_less(1.6, errors[:-1] / errors[1:])  # halved, or about,
        np.testing.assert_array_less(errors[:-1] / errors[1:], 2.5)  # at each doubling of S

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
        # F is a function on the period [0, T]: the part of I outside it is refused
        grid = Grid(0.5, 256)
        E = ThickSet(((0.0, 0.5),), (0.0, 0.5))
        f = random_band_function(grid, np.random.default_rng(0))
        message = (rf"^interval I = \[{interval[0]}, {interval[1]}\] is not inside "
                   rf"the grid window \[0, T\] = \[0.0, 0.5\]$")
        with pytest.raises(ValueError, match=message):
            _lemma_window(E, grid, interval)
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
        assert rec.ratio == 1.0

    @pytest.mark.parametrize("T, delta", [(2.0, 0.5), (4.0, 1.0), (8.0, 1.0), (16.0, 0.25)])
    def test_full_comb_ratio_is_exactly_one(self, T, delta):
        # on a full comb the form is exactly the identity, and its value is
        # summed as the norm is
        grid = Grid(T, 4096)
        E = periodic_comb(1.0, delta, (0.0, T))
        seq = Sequence((2.0, 5.0, 11.0, 40.0))
        rng = np.random.default_rng(int(T))
        for _ in range(5):
            blocks = [rng.standard_normal(3) + 1j * rng.standard_normal(3) for _ in seq.values]
            assert theorem_split_check(blocks, seq, TailSchedule.constant(2), 1, E, grid).ratio == 1.0

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
    """Oracle of theorem_split_check: the restricted energy of F by
    Gauss-Legendre quadrature over E's intervals, F sampled at its nodes by
    a direct sum, and its squared norm, head and tail by Parseval."""
    F = synthesize(blocks, seq, grid)
    k = grid.frequencies(F.bins)
    x, w = gauss_legendre(E.intervals, 2 * np.abs(k).max() + 1)
    restricted = float(np.sum(w * np.abs(np.exp(2j * np.pi * np.outer(x, k)) @ F.coeffs) ** 2))
    energy = [float(np.sum(np.abs(np.asarray(b, dtype=complex)) ** 2)) for b in blocks]
    norm_sq = grid.period * sum(energy)
    M = schedule.value(L)
    head = grid.period * sum(energy[: M - 1])
    return restricted / norm_sq, head / norm_sq, grid.period * sum(energy[M - 1:]) / norm_sq


@st.composite
def split_cases(draw, small=False):
    """A grid, positive on-grid anchors more than 1 apart, one block per
    anchor (up to its band's width), a tail start M (1 empties the head, past
    the anchors the tail) and a comb, a rational union or the full window;
    ``small`` keeps the grid and the frequencies low."""
    T = draw(st.sampled_from([2.0, 4.0] if small else [2.0, 4.0, 5.0, 8.0]))
    S = draw(st.sampled_from([128] if small else [32, 64, 128, 512, 2048]))
    top = 2 * int(T) + 2 if small else 40
    gaps = draw(st.lists(st.integers(int(T) + 1, top), min_size=1, max_size=3 if small else 4))
    start = draw(st.integers(1, top))
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
    @given(split_cases(small=True))
    @settings(max_examples=25, deadline=None)
    def test_ratio_matches_50_digit_quadrature(self, case):
        mpmath = pytest.importorskip("mpmath")
        grid, seq, blocks, schedule, E, kind = case
        rec = theorem_split_check(blocks, seq, schedule, 1, E, grid)
        F = synthesize(blocks, seq, grid)
        with mpmath.workdps(50):
            restricted = mp_integral(mp_power(mp_terms(F, 0)), E.intervals)
            norm = grid.period * sum(abs(mpmath.mpc(c)) ** 2 for c in F.coeffs.tolist())
        assert rec.ratio ** 2 == pytest.approx(float(restricted / norm), rel=1e-13, abs=1e-15)

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

    def test_form_past_the_cap_is_a_correlation(self, monkeypatch):
        # 8 bins make a form of 64 = S entries, built; 9 make 81 > S, never
        # built: the closed form is taken on the 17 differences -8..8 alone
        grid, seq = Grid(8.0, 64), Sequence((0.5,))
        E = periodic_comb(0.5, 1.0, (0.0, 8.0))
        sizes, evaluated = fft_spy(monkeypatch), []
        closed_form = conc._closed_form
        monkeypatch.setattr(conc, "_closed_form",
                            lambda d, *args: evaluated.append(d.size) or closed_form(d, *args))
        for width, entries, transforms in ((8, [64], []), (9, [17], [9, 9, 32])):
            blocks = [np.arange(1, width + 1) * (1 - 2j)]
            rec = theorem_split_check(blocks, seq, TailSchedule.constant(1), 1, E, grid)
            # past the cap the correlation is one FFT product, padded to 32
            assert sizes == transforms and evaluated == entries
            sizes.clear()
            evaluated.clear()
            restricted, _, _ = sampled_split(blocks, seq, TailSchedule.constant(1), 1, E, grid)
            assert rec.ratio ** 2 == pytest.approx(restricted, rel=1e-13)

    @given(st.integers(1, 400), st.integers(1, 400), st.integers(1, 3),
           st.integers(0, 2**32 - 1), st.sampled_from([1e-200, 1.0, 1e200]))
    @settings(max_examples=100, deadline=None)
    def test_fft_correlation_is_np_correlate(self, width_a, width_b, rows, seed, scale):
        rng = np.random.default_rng(seed)
        a, b = ((rng.standard_normal((rows, w)) + 1j * rng.standard_normal((rows, w)))
                * (rng.random((rows, w)) < 0.7) for w in (width_a, width_b))
        got = conc._correlate_rows(a * scale, b)
        assert got.shape == (rows, width_a + width_b - 1)
        for g, u, v in zip(got, a * scale, b):
            bound = 1e-12 * np.abs(u).sum() * np.abs(v).sum()
            assert np.max(np.abs(g - np.correlate(u, v, "full"))) <= bound

    def test_an_ensemble_transforms_nothing(self, monkeypatch):
        grid = Grid(16.0, 16384)
        E = periodic_comb(0.5, 1.0, (0.0, 16.0))
        sizes = fft_spy(monkeypatch)
        records = split_trials(Sequence((2, 8, 32)), E, grid, 1, TailSchedule(((1, 2),)), 7, 20)
        assert len(records) == 20
        assert sizes == []
