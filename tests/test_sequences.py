import json
import math
import tracemalloc
from bisect import bisect_left, bisect_right
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from lacspec import cli, sequences
from lacspec.errors import LimitError, NumericalError
from lacspec.sequences import (
    GREEDY_MAX_COUNT,
    GREEDY_MAX_TABLE_BITS,
    LacunarityReport,
    Sequence,
    TailSchedule,
    build_counterexample,
    build_greedy,
    check_hadamard,
    difference_set,
    greedy_growth_table,
    growth_bound,
    strong_zygmund_profile,
    zygmund_constant,
)


def zygmund_brute(vals, L):
    """Quadruple-loop oracle for the collision count."""
    n = len(vals)
    best = 0
    for k in range(n):
        for l in range(n):
            if k == l:
                continue
            d = vals[k] - vals[l]
            c = 0
            for k2 in range(n):
                for l2 in range(n):
                    if k2 != l2 and abs(d - (vals[k2] - vals[l2])) <= L:
                        c += 1
            best = max(best, c)
    return best


def bisect_zygmund(seq, L=1, *, kind="zygmund", index_offset=0):
    """Oracle: the tuple-and-bisect count, in Python numbers throughout."""
    if L < 1:
        raise ValueError("collision threshold L must be >= 1")
    n = len(seq)
    if n < 2:
        return LacunarityReport(kind, float(L), 0, ())
    if seq.integer_valued and float(L) == int(L):
        L = int(L)
    vals = seq.values
    pairs = [(vals[k] - vals[l], k, l) for k in range(n) for l in range(n) if k != l]
    table = sorted(d for d, _, _ in pairs)
    best = 0
    witness = []
    for d, k, l in pairs:
        c = bisect_right(table, d + L) - bisect_left(table, d - L)
        if c > best:
            best = c
            witness = [(k + index_offset, l + index_offset)]
        elif c == best:
            witness.append((k + index_offset, l + index_offset))
    return LacunarityReport(kind, float(L), best, tuple(witness))


def ordered_pairs_zygmund(seq, L=1, *, kind="zygmund", index_offset=0):
    """Oracle: the kernel over all n(n - 1) ordered differences, sorted once,
    each count two binary searches of its own value, mapped back to (k, l)
    order by the sort's permutation."""
    if L < 1:
        raise ValueError("collision threshold L must be >= 1")
    n = len(seq)
    if n < 2:
        return LacunarityReport(kind, float(L), 0)
    parameter, L = float(L), sequences._collision_threshold(seq, L)
    d = sequences._differences(seq, L)
    order = np.argsort(d)
    table = d[order]
    c = np.searchsorted(table, table + L, side="right") - np.searchsorted(table, table - L)
    best = int(c.max())
    attained = np.zeros(d.size, dtype=bool)
    attained[order[c == best]] = True
    k, l = np.divmod(np.flatnonzero(attained), n - 1)
    l += l >= k  # the diagonal k == l is skipped
    return LacunarityReport(kind, parameter, best, np.column_stack((k, l)) + index_offset)


def full_search_zygmund(seq, L=1, *, kind="zygmund", index_offset=0):
    """Oracle: the kernel with two binary searches for every entry of the
    positive-difference table, and the witness read off an n x n mask of the
    pairs whose difference attains the constant, at the threshold of
    ``_collision_threshold``."""
    if L < 1:
        raise ValueError("collision threshold L must be >= 1")
    n = len(seq)
    if n < 2:
        return LacunarityReport(kind, float(L), 0)
    parameter, L = float(L), sequences._collision_threshold(seq, L)
    v = sequences._exact_values(seq.values, L)
    upper = np.triu(np.ones((n, n), dtype=bool), 1)
    p = (v[None, :] - v[:, None])[upper]
    table = np.sort(p)
    c = np.searchsorted(table, table + L, side="right") - np.searchsorted(table, table - L)
    near = np.searchsorted(table, L)
    c[:near] += np.searchsorted(table, L - table[:near], side="right")
    best = int(c.max())
    values = table[c == best]
    at = np.minimum(np.searchsorted(values, p), values.size - 1)
    hit = np.zeros((n, n), dtype=bool)
    hit[upper] = values[at] == p
    hit |= hit.T
    k, l = np.divmod(np.flatnonzero(hit), n)
    return LacunarityReport(kind, parameter, best, np.column_stack((k, l)) + index_offset)


@st.composite
def crowded_inputs(draw):
    """A sequence of 2 to 60 terms and a threshold L, int or float: small
    ints (many equal differences, and many exactly L or L + 1 apart), ints
    past the int64 values, floats on (1/8)Z and of any bits, Fractions."""
    kind = draw(st.sampled_from(["ties", "past_int64", "eighths", "float", "fraction"]))
    elems = {
        "ties": st.integers(0, draw(st.sampled_from([70, 200, 10**4]))),
        "past_int64": st.sampled_from([2**63, 4**40, -2**64]).flatmap(
            lambda c: st.integers(c, c + 150)),
        "eighths": st.integers(-400, 400).map(lambda k: k / 8),
        "float": st.floats(-1e3, 1e3),
        "fraction": st.builds(Fraction, st.integers(-300, 300), st.integers(1, 7)),
    }[kind]
    vals = draw(st.lists(elems, min_size=2, max_size=60, unique=True))
    assume(len({v: v for v in vals}) >= 2)
    L = draw(st.sampled_from([1, 2, 3, 1.5, 2.25, 4.0]))
    return Sequence(tuple(sorted({v: v for v in vals}.values()))), L


def set_difference_set(seq):
    """Oracle: the distinct nonzero differences by a set comprehension."""
    vals = seq.values
    return sorted({vals[k] - vals[l] for k in range(len(vals))
                   for l in range(len(vals)) if k != l})


def assert_same_report(got, want):
    """Whole-report equality, witness order included, in plain Python numbers."""
    assert got == want
    assert type(got.constant) is int
    assert repr(got.to_dict()) == repr(want.to_dict())


@st.composite
def collision_inputs(draw):
    """A sequence and a threshold L from each regime of the difference dtype:
    small ints, ints near +-2**62 (ranges across the int64 limit), ints past
    the int64 values with a small range, Fractions, floats, mixed ints and
    floats, and L = 1.5 on ints above 2**53."""
    kind = draw(st.sampled_from(
        ["int", "near_2_62", "past_int64", "fraction", "float", "mixed", "above_2_53"]))
    small = st.integers(-60, 60)
    L = draw(st.integers(1, 4))
    if kind == "int":
        elems = small
    elif kind == "near_2_62":
        elems = st.sampled_from([-2**62, 0, 2**62]).flatmap(
            lambda c: st.integers(c - 8, c + 8))
    elif kind == "past_int64":
        elems = st.sampled_from([-2**64, -2**63 - 9, 2**63, 2**64, 4**40]).flatmap(
            lambda c: st.integers(c, c + 40))
    elif kind == "fraction":
        elems = st.builds(Fraction, small, st.integers(1, 6))
        L = draw(st.sampled_from([L, Fraction(3, 2)]))
    elif kind == "float":
        elems = st.builds(lambda a, b: a / b, small, st.integers(1, 7))
        L = draw(st.sampled_from([L, 2.5, Fraction(3, 2)]))
    elif kind == "mixed":
        elems = st.one_of(small, small.map(float), small.map(lambda a: a / 4))
    else:
        elems = st.integers(0, 40).map(lambda a: 2**54 + a)
        L = 1.5
    vals = draw(st.lists(elems, max_size=9))
    # one of each value: 1 and 1.0 are the same term
    return Sequence(tuple(sorted({v: v for v in vals}.values()))), L


def greedy_oracle(count, threshold_of_n):
    """Set-based reimplementation: materialize the forbidden set per step."""
    lam = [1]
    while len(lam) < count:
        L = threshold_of_n(len(lam))
        forbidden = {
            a + b - c + p
            for a in lam
            for b in lam
            for c in lam
            for p in range(-L, L + 1)
        }
        x = 1
        while x in forbidden:
            x += 1
        lam.append(x)
    return lam


def byte_table_next_free(centers, start, L, span):
    """Oracle: the free-slot search over a boolean table, one byte per slot,
    by the gaps between the marked centers of a window."""
    gap = 2 * L + 1
    lo = max(start - L, 0)
    span = max(span, 64 * gap)
    while True:
        hi = start + span + L
        found = np.flatnonzero(centers[lo:hi]) + lo
        end = hi if hi < centers.size else hi + gap
        edges = np.concatenate(([start - L - 1], found, [end]))
        free = np.flatnonzero(np.diff(edges) > gap)
        if free.size:
            return int(edges[free[0]]) + L + 1
        span *= 2


def byte_table_steps(count, schedule):
    """Oracle: the greedy rows from a boolean table of centers, marked by one
    scattered write per earlier difference after each term."""
    yield (1, 1, None, 1)
    terms = np.empty(count, dtype=np.int64)
    diffs = np.empty(count * (count - 1) // 2, dtype=np.int64)  # a - b, a > b
    centers = np.zeros(0, dtype=bool)
    x = 1
    for n in range(1, count):
        first, stop = (n - 1) * (n - 2) // 2, n * (n - 1) // 2
        np.subtract(x, terms[:n - 1], out=diffs[first:stop])
        terms[n - 1] = x
        if centers.size < 2 * x:
            grown = np.zeros(max(2 * centers.size, 2 * x), dtype=bool)
            grown[:centers.size] = centers
            centers = grown
        centers[x] = True
        centers[diffs[:stop] + x] = True
        L = schedule.threshold_for(n)
        x = byte_table_next_free(centers, x + 1, L, int(x - terms[n - 2]) if n > 1 else 0)
        yield (n + 1, x, L, growth_bound(n, L))


@st.composite
def schedules(draw):
    """Tail schedules starting at M(1) = 1 with L steps of up to 5."""
    bps = [(1, 1)]
    for _ in range(draw(st.integers(0, 3))):
        L, M = bps[-1]
        bps.append((L + draw(st.integers(1, 5)), M + draw(st.integers(0, 10))))
    return TailSchedule(tuple(bps))


@st.composite
def wide_schedules(draw):
    """Tail schedules whose L may jump by up to 70 in one step, so that a
    run of 2L + 1 slots crosses 64-bit words, and may exceed 1 from the
    first step on (M(L) = 1 past L = 1)."""
    bps = [(1, 1)]
    for _ in range(draw(st.integers(0, 3))):
        L, M = bps[-1]
        bps.append((L + draw(st.integers(1, 70)), M + draw(st.integers(0, 40))))
    return TailSchedule(tuple(bps))


class TestSequence:
    def test_strictly_increasing_enforced(self):
        with pytest.raises(ValueError):
            Sequence((1, 1, 2))
        with pytest.raises(ValueError):
            Sequence((3, 2))

    def test_integer_detection(self):
        assert Sequence((1, 2, 4)).integer_valued
        assert not Sequence((1.0, 2.5)).integer_valued

    def test_numpy_integers_become_ints(self):
        seq = Sequence(tuple(np.arange(3)))
        assert seq.integer_valued
        assert seq.to_text() == "0\n1\n2\n"
        wide = Sequence((np.int64(-(2**62)), np.int64(2**62)))
        assert wide[1] - wide[0] == 2**63

    def test_booleans_rejected(self):
        for vals in ((True, 2), (np.False_, 1)):
            with pytest.raises(ValueError, match="boolean"):
                Sequence(vals)

    def test_text_roundtrip(self):
        seq = Sequence((1, 3, 7, 15))
        assert Sequence.from_text(seq.to_text()) == seq
        seqf = Sequence((0.5, 1.25))
        assert Sequence.from_text(seqf.to_text()) == seqf

    def test_tail_is_one_based(self):
        seq = Sequence((1, 3, 7, 15))
        assert seq.tail(1) == seq
        assert seq.tail(3).values == (7, 15)


class TestTailSchedule:
    def test_value_steps(self):
        sch = TailSchedule(((1, 1), (2, 6), (5, 14)))
        assert [sch.value(L) for L in (1, 2, 3, 4, 5, 9)] == [1, 6, 6, 6, 14, 14]

    def test_threshold_inverts(self):
        sch = TailSchedule(((1, 1), (2, 6), (3, 14)))
        assert sch.threshold_for(1) == 1
        assert sch.threshold_for(5) == 1
        assert sch.threshold_for(6) == 2
        assert sch.threshold_for(14) == 3
        assert sch.threshold_for(1000) == 3

    def test_validation(self):
        with pytest.raises(ValueError):
            TailSchedule(((2, 1),))  # must start at L = 1
        with pytest.raises(ValueError):
            TailSchedule(((1, 5), (2, 3)))  # decreasing M
        with pytest.raises(ValueError):
            TailSchedule(((1, 9),)).threshold_for(3)


class TestHadamard:
    def test_geometric_passes(self):
        rep = check_hadamard(Sequence((1, 2, 4, 8)), 2.0)
        assert rep.passes and rep.constant == 2.0

    def test_short_gap_fails(self):
        rep = check_hadamard(Sequence((1, 2, 3)), 2.0)
        assert not rep.passes
        assert rep.constant == pytest.approx(1.5)
        assert rep.witness.tolist() == [[1, 2]]

    def test_greedy_output_passes(self):
        rep = check_hadamard(build_greedy(4), 2.0)
        assert rep.passes
        assert rep.constant == pytest.approx(15 / 7)

    def test_degenerate_short_sequence(self):
        rep = check_hadamard(Sequence((5,)), 2.0)
        assert rep.passes and rep.constant == math.inf

    @pytest.mark.parametrize("q", [math.nan, math.inf, 1, 0.5])
    def test_threshold_must_be_finite_and_exceed_one(self, q):
        with pytest.raises(ValueError, match="q must be finite and exceed 1"):
            check_hadamard(Sequence((1, 4, 16)), q)

    def test_nonpositive_rejected(self):
        with pytest.raises(ValueError):
            check_hadamard(Sequence((-1, 2, 4)), 2.0)


class TestZygmundConstant:
    def test_two_far_points_only_self_pair(self):
        assert zygmund_constant(Sequence((0, 10)), 1).constant == 1

    def test_small_geometric_matches_brute_force(self):
        vals = (1, 2, 4, 8)
        rep = zygmund_constant(Sequence(vals), 1)
        assert rep.constant == 3
        assert rep.constant == zygmund_brute(vals, 1)

    def test_counterexample_k6_matches_brute_force_twice(self):
        seq = build_counterexample(6)
        first = zygmund_constant(seq, 1).constant
        second = zygmund_constant(build_counterexample(6), 1).constant
        assert first == second == zygmund_brute(list(seq), 1)

    def test_witness_attains_the_count(self):
        seq = Sequence((1, 2, 4, 8))
        rep = zygmund_constant(seq, 1)
        table = difference_set(seq)
        for k, l in rep.witness:
            d = seq[k] - seq[l]
            # distinct differences here are unique per ordered pair
            assert sum(1 for d2 in table if abs(d - d2) <= 1) == rep.constant

    def test_threshold_below_one_rejected(self):
        with pytest.raises(ValueError):
            zygmund_constant(Sequence((1, 2)), 0.5)

    @given(
        st.lists(st.integers(0, 80), min_size=2, max_size=7, unique=True),
        st.integers(1, 4),
    )
    @settings(max_examples=60, deadline=None)
    def test_reverse_negate_symmetry(self, vals, L):
        vals = sorted(vals)
        mirrored = sorted(-v for v in vals)
        a = zygmund_constant(Sequence(tuple(vals)), L).constant
        b = zygmund_constant(Sequence(tuple(mirrored)), L).constant
        assert a == b

    @given(st.lists(st.integers(0, 80), min_size=2, max_size=7, unique=True))
    @settings(max_examples=60, deadline=None)
    def test_monotone_in_threshold(self, vals):
        seq = Sequence(tuple(sorted(vals)))
        counts = [zygmund_constant(seq, L).constant for L in (1, 2, 4, 8)]
        assert counts == sorted(counts)

    @given(
        st.lists(st.integers(0, 40), min_size=2, max_size=6, unique=True),
        st.integers(1, 3),
    )
    @settings(max_examples=40, deadline=None)
    def test_matches_brute_force(self, vals, L):
        vals = sorted(vals)
        assert zygmund_constant(Sequence(tuple(vals)), L).constant == zygmund_brute(
            vals, L
        )


class TestCollisionKernel:
    """The sorted-array kernel against the tuple-and-bisect oracle."""

    @given(collision_inputs(), st.integers(0, 5))
    @settings(max_examples=300, deadline=None)
    @example(case=(Sequence((0, 1, 2**62 - 3)), 2), offset=0)  # int64 limit minus one
    @example(case=(Sequence((0, 1, 2**62 - 3)), 3), offset=0)  # at the limit: objects
    @example(case=(Sequence((-2**62, 1, 2**62)), 1), offset=0)  # range past 2**63
    @example(case=(Sequence((2**64, 2**64 + 1)), 1), offset=0)  # values past int64
    def test_matches_bisect_oracle(self, case, offset):
        seq, L = case
        assert_same_report(
            zygmund_constant(seq, L, kind="strong_zygmund", index_offset=offset),
            bisect_zygmund(seq, L, kind="strong_zygmund", index_offset=offset))

    @pytest.mark.parametrize("report", [
        zygmund_constant(Sequence((1, 2, 4, 8)), 1),
        zygmund_constant(Sequence((3,)), 2),
        zygmund_constant(Sequence(()), 1),
        zygmund_constant(build_counterexample(40), 2),
        strong_zygmund_profile(build_counterexample(6), TailSchedule(((1, 3),)), [1])[0],
        check_hadamard(Sequence((1, 2, 3)), 2.0),
        check_hadamard(Sequence((5,)), 2.0),
        LacunarityReport("hadamard", 2.0, math.inf, (), True),
    ], ids=["zygmund", "zygmund_one_term", "zygmund_empty", "zygmund_objects",
            "strong", "hadamard", "hadamard_one_term", "constructed_empty"])
    def test_witness_is_a_read_only_int64_pair_array(self, report):
        w = report.witness
        assert isinstance(w, np.ndarray) and w.dtype == np.int64
        assert w.ndim == 2 and w.shape[1] == 2
        assert not w.flags.writeable
        with pytest.raises(ValueError):
            w[...] = 0
        assert report.to_dict()["witness"] == [list(map(int, row)) for row in w]

    def test_witness_of_a_caller_array_is_a_frozen_copy(self):
        pairs = np.array([[0, 1], [1, 0]])
        rep = LacunarityReport("zygmund", 1.0, 2, pairs)
        pairs[0] = 9
        assert pairs.flags.writeable
        assert rep.witness.tolist() == [[0, 1], [1, 0]]

    def test_equality_sees_the_witness_order(self):
        rep = zygmund_constant(Sequence((1, 2, 4, 8)), 1)
        assert len(rep.witness) > 1
        same = LacunarityReport(rep.kind, rep.parameter, rep.constant, rep.witness.tolist())
        swapped = LacunarityReport(
            rep.kind, rep.parameter, rep.constant, rep.witness[::-1])
        assert rep == same
        assert rep != swapped
        assert rep != LacunarityReport(rep.kind, rep.parameter, rep.constant, ())

    def test_parameter_is_a_float_on_short_sequences(self):
        for vals in ((), (7,)):
            rep = zygmund_constant(Sequence(vals), 1)
            assert type(rep.parameter) is float
            assert rep.to_dict()["parameter"] == 1.0

    @pytest.mark.parametrize("K", [32, 40, 64])
    @pytest.mark.parametrize("L", [1, 2, 4])
    def test_paired_powers_past_the_word_size(self, K, L):
        seq = build_counterexample(K)
        assert_same_report(zygmund_constant(seq, L), bisect_zygmund(seq, L))

    def test_values_past_int64_with_a_small_range(self):
        sch = TailSchedule(((1, 79),))
        seq = build_counterexample(40)
        (rep,) = strong_zygmund_profile(seq, sch, [1])
        tail = seq.tail(79)
        assert tail.values == (4**40, 4**40 + 40)
        assert_same_report(rep, bisect_zygmund(
            tail, 1, kind="strong_zygmund", index_offset=78))
        for far in (tail, Sequence((2**64, 2**64 + 1)), Sequence((-2**64, -2**64 + 3))):
            assert_same_report(zygmund_constant(far, 2), bisect_zygmund(far, 2))
            assert repr(difference_set(far)) == repr(set_difference_set(far))

    def test_greedy_four_hundred(self):
        seq = build_greedy(400)
        assert_same_report(zygmund_constant(seq, 1), bisect_zygmund(seq, 1))

    def test_scheduled_greedy_tails(self):
        sch = TailSchedule(((1, 1), (2, 87)))
        seq = build_greedy(300, sch)
        reports = strong_zygmund_profile(seq, sch, [1, 2])
        for rep, L in zip(reports, (1, 2)):
            M = sch.value(L)
            assert_same_report(rep, bisect_zygmund(
                seq.tail(M), L, kind="strong_zygmund", index_offset=M - 1))

    @pytest.mark.parametrize("L", [1, 2, 4, 1.5])
    def test_positive_differences_match_all_ordered_pairs(self, L):
        sch = TailSchedule(((1, 1), (2, 87)))
        scheduled = build_greedy(300, sch)
        cases = [(build_greedy(400), 0), (Sequence((3, 10)), 0), (Sequence((0.5, 0.75)), 0),
                 (Sequence((Fraction(1, 3), 2)), 0)]
        cases += [(scheduled.tail(M), M - 1) for M in (sch.value(1), sch.value(2))]
        cases += [(build_counterexample(K), 0) for K in (14, 20, 33)]  # 4**33 is past int64
        for seq, offset in cases:
            got = zygmund_constant(seq, L, kind="strong_zygmund", index_offset=offset)
            want = ordered_pairs_zygmund(seq, L, kind="strong_zygmund", index_offset=offset)
            assert_same_report(got, want)

    def test_strong_profile_matches_all_ordered_pairs(self):
        sch = TailSchedule(((1, 1), (2, 87)))
        seq = build_greedy(300, sch)
        for rep, L in zip(strong_zygmund_profile(seq, sch, [1, 2]), (1, 2)):
            M = sch.value(L)
            assert_same_report(rep, ordered_pairs_zygmund(
                seq.tail(M), L, kind="strong_zygmund", index_offset=M - 1))

    @given(st.sampled_from(["int", "fraction", "float"]).flatmap(lambda kind: st.lists(
               {"int": st.integers(-60, 60) | st.integers(-10**6, 10**6),
                "fraction": st.builds(Fraction, st.integers(-400, 400), st.integers(1, 9)),
                "float": st.floats(-100.0, 100.0)}[kind], min_size=2, max_size=40)),
           st.sampled_from([1, 2, 4, 1.5]))
    @settings(max_examples=300, deadline=None)
    def test_random_lists_match_all_ordered_pairs(self, vals, L):
        seq = Sequence(tuple(sorted({v: v for v in vals}.values())))
        assert_same_report(zygmund_constant(seq, L), ordered_pairs_zygmund(seq, L))

    @given(collision_inputs())
    @settings(max_examples=200, deadline=None)
    @example(case=(Sequence((0, 1, 2.0)), 1))  # 1 and 1.0: the first in (k, l) order
    def test_difference_set_matches_set_oracle(self, case):
        seq, _ = case
        got, want = difference_set(seq), set_difference_set(seq)
        assert got == want
        assert repr(got) == repr(want)

    @pytest.mark.parametrize("K", [12, 32, 64])
    def test_difference_set_of_paired_powers(self, K):
        seq = build_counterexample(K)
        assert repr(difference_set(seq)) == repr(set_difference_set(seq))


class TestCrowdedDifferences:
    """Binary searches on the crowded entries of the table only, and the
    witness of an all-attaining table written directly, against the search
    of every entry and the witness mask."""

    @given(crowded_inputs(), st.integers(0, 3))
    @settings(max_examples=300, deadline=None)
    def test_matches_the_full_search(self, case, offset):
        seq, L = case
        assert_same_report(zygmund_constant(seq, L, index_offset=offset),
                           full_search_zygmund(seq, L, index_offset=offset))

    @pytest.mark.parametrize("seq", [build_greedy(1000), build_counterexample(14),
                                     build_counterexample(40)],
                             ids=["greedy1000", "K14", "K40"])
    @pytest.mark.parametrize("L", [1, 2, 4])
    def test_large_lists_match_the_full_search(self, seq, L):
        assert_same_report(zygmund_constant(seq, L), full_search_zygmund(seq, L))

    @given(st.lists(st.sampled_from([0, 2**63, 4**40, -2**70]).flatmap(
               lambda c: st.integers(c, c + 9)), min_size=2, max_size=6, unique=True),
           st.sampled_from([1.5, 2.5, 3.75]))
    @settings(max_examples=100, deadline=None)
    @example(vals=[0, 2**70 + 1, 2**71 + 3], L=1.5)  # read constant 0 at d +- L in floats
    def test_a_float_threshold_on_huge_integers_is_exact(self, vals, L):
        vals = sorted(vals)
        rep = zygmund_constant(Sequence(tuple(vals)), L)
        assert rep.constant == zygmund_brute(vals, L) >= 1
        assert rep.parameter == L

    def test_the_witness_of_a_greedy_list_is_every_ordered_pair(self):
        seq = build_greedy(50)
        rep = zygmund_constant(seq, 1, index_offset=3)
        assert rep.constant == 1
        assert rep.witness.tolist() == [[k + 3, l + 3] for k in range(50)
                                        for l in range(50) if k != l]


class TestStrongProfile:
    def test_hadamard_powers_uniformly_flat(self):
        seq = Sequence(tuple(4**k for k in range(1, 13)))
        reports = strong_zygmund_profile(seq, TailSchedule.constant(1), [1, 2, 4])
        # scale-separated differences: only the self pair ever collides
        assert [r.constant for r in reports] == [1, 1, 1]

    def test_counterexample_count_at_least_threshold(self):
        seq = build_counterexample(20)
        (rep,) = strong_zygmund_profile(seq, TailSchedule.constant(1), [8])
        assert rep.constant >= 8

    def test_two_element_tail(self):
        seq = Sequence((1, 5, 50))
        (rep,) = strong_zygmund_profile(seq, TailSchedule(((1, 2),)), [1])
        assert rep.constant == 1

    def test_tail_start_beyond_truncation(self):
        seq = Sequence((1, 5, 50))
        with pytest.raises(ValueError, match="M\\(1\\)"):
            strong_zygmund_profile(seq, TailSchedule(((1, 3),)), [1])

    def test_witness_indices_refer_to_full_sequence(self):
        seq = build_counterexample(6)
        (rep,) = strong_zygmund_profile(seq, TailSchedule(((1, 3),)), [1])
        assert all(k >= 2 and l >= 2 for k, l in rep.witness)


class TestSeqCheckOutput:
    """`lacspec seq check` prints the oracle's report byte for byte."""

    @staticmethod
    def printed(reports):
        return json.dumps(reports, indent=2, default=str) + "\n"

    def test_zygmund_on_the_greedy_sequence(self, capsys):
        argv = ["seq", "check", "--builder", "greedy", "--count", "400",
                "--kind", "zygmund", "--L", "1"]
        assert cli.main(argv) == 0
        want = bisect_zygmund(build_greedy(400), 1)
        assert capsys.readouterr().out == self.printed(want.to_dict())

    def test_strong_on_a_two_step_schedule(self, capsys):
        argv = ["seq", "check", "--builder", "greedy", "--count", "300",
                "--schedule", "1:1,2:87", "--kind", "strong", "--L-values", "1,2"]
        assert cli.main(argv) == 0
        sch = TailSchedule(((1, 1), (2, 87)))
        seq = build_greedy(300, sch)
        want = [bisect_zygmund(seq.tail(sch.value(L)), L, kind="strong_zygmund",
                               index_offset=sch.value(L) - 1).to_dict()
                for L in (1, 2)]
        assert capsys.readouterr().out == self.printed(want)

    def test_one_term_file_prints_a_float_parameter(self, tmp_path, capsys):
        path = tmp_path / "one.txt"
        path.write_text("5\n")
        argv = ["seq", "check", "--input", str(path), "--kind", "zygmund", "--L", "1"]
        assert cli.main(argv) == 0
        assert '"parameter": 1.0,' in capsys.readouterr().out


class TestGreedy:
    def test_first_four_terms(self):
        assert build_greedy(4).values == (1, 3, 7, 15)
        assert greedy_oracle(4, lambda n: 1) == [1, 3, 7, 15]

    def test_single_term(self):
        assert build_greedy(1).values == (1,)

    def test_matches_set_oracle_constant_threshold(self):
        assert list(build_greedy(30)) == greedy_oracle(30, lambda n: 1)

    def test_matches_set_oracle_stepped_schedule(self):
        sch = TailSchedule(((1, 1), (2, 6), (3, 14)))

        def thr(n):
            return 3 if n >= 14 else (2 if n >= 6 else 1)

        assert list(build_greedy(25, sch)) == greedy_oracle(25, thr)

    @settings(max_examples=25, deadline=None)
    @given(count=st.integers(2, 30), schedule=schedules())
    @example(count=30, schedule=TailSchedule(((1, 1), (2, 6), (7, 6), (12, 9))))
    def test_matches_set_oracle_random_schedule(self, count, schedule):
        # L may jump by 4 or more in one step; every earlier center then
        # forbids the wider range
        expected = greedy_oracle(count, schedule.threshold_for)
        assert list(build_greedy(count, schedule)) == expected

    def test_matches_the_byte_table_oracle(self):
        plans = [TailSchedule(((1, 1), (2, 87))),
                 TailSchedule(((1, 1), (2, 6), (3, 14))),
                 TailSchedule(((1, 1), (2, 20), (4, 60)))]
        assert list(build_greedy(1000)) == [
            row[1] for row in byte_table_steps(1000, TailSchedule.constant(1))]
        tables = [greedy_growth_table(300, sch) for sch in plans]
        assert tables == [list(byte_table_steps(300, sch)) for sch in plans]
        # the runs cover terms at both edges of a 64-bit word
        residues = {row[1] % 64 for table in tables for row in table}
        assert {0, 63} <= residues

    @settings(max_examples=60, deadline=None)
    @given(count=st.integers(1, 150), schedule=wide_schedules())
    @example(count=150, schedule=TailSchedule(((1, 1), (71, 1))))
    @example(count=150, schedule=TailSchedule(((1, 1), (2, 1), (72, 9), (90, 30))))
    def test_matches_the_byte_table_oracle_on_wide_schedules(self, count, schedule):
        assert greedy_growth_table(count, schedule) == list(byte_table_steps(count, schedule))

    def test_peak_allocation_follows_largest_term(self):
        # two bitsets of about 3 x_n / 8 bytes: near 0.6 MiB for n = 300 and
        # 2.3 MiB for n = 400, where a table sized by the cubic bound needs
        # over 200 MiB
        for count in (300, 400):
            tracemalloc.start()
            try:
                build_greedy(count)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 4 * 2**20, count

    def test_count_past_the_cap_is_refused_before_the_first_term(self):
        with pytest.raises(LimitError, match=f"count {GREEDY_MAX_COUNT + 1} is above "
                           f"{GREEDY_MAX_COUNT}") as exc:
            greedy_growth_table(GREEDY_MAX_COUNT + 1)
        assert exc.value.key == "count"

    def test_table_past_the_cap_is_refused_before_it_grows(self, monkeypatch):
        full = greedy_growth_table(200)
        monkeypatch.setattr(sequences, "GREEDY_MAX_TABLE_BITS", 2**14)
        rows = []
        with pytest.raises(LimitError, match="count 200 needs a greedy table of more "
                           "than 16384 bits with this schedule: term ") as exc:
            rows.extend(sequences._greedy_steps(200, TailSchedule.constant(1)))
        assert exc.value.key == "count"
        # the terms before the refusal are the run's own, the last of them
        # the first that needs 2 x > 16384 bits of centers
        assert rows == full[:len(rows)]
        assert 128 * ((rows[-1][1] >> 6) + 1) > 2**14 >= 128 * ((rows[-2][1] >> 6) + 1)

    def test_search_window_past_the_cap_is_refused(self):
        with pytest.raises(LimitError, match="count 5 needs a greedy search window of "
                           f"more than {GREEDY_MAX_TABLE_BITS // 8} slots"):
            build_greedy(5, TailSchedule(((1, 1), (10**8, 2))))

    def test_growth_certificate_two_hundred_terms(self):
        table = greedy_growth_table(200)
        assert len(table) == 200
        for n, value, L, bound in table[1:]:
            assert value <= bound == growth_bound(n - 1, L)
        vals = [row[1] for row in table]
        assert vals == sorted(vals)

    def test_self_certification_on_own_schedule(self):
        # within the scheduled tail, no two distinct difference pairs come
        # within L of each other: the collision count is the self pair alone
        seq = build_greedy(200)
        (rep,) = strong_zygmund_profile(seq, TailSchedule.constant(1), [1])
        assert rep.constant == 1

    def test_self_certification_stepped_schedule(self):
        sch = TailSchedule(((1, 1), (2, 6), (3, 14)))
        seq = build_greedy(40, sch)
        for rep in strong_zygmund_profile(seq, sch, [1, 2, 3]):
            assert rep.constant == 1

    def test_count_validation(self):
        with pytest.raises(ValueError):
            build_greedy(0)


class TestCounterexample:
    def test_smallest_cases(self):
        assert build_counterexample(1).values == (4, 5)
        assert build_counterexample(3).values == (4, 5, 16, 18, 64, 67)

    def test_rejects_empty_and_huge(self):
        with pytest.raises(ValueError):
            build_counterexample(0)
        with pytest.raises(OverflowError):
            build_counterexample(10_001)

    def test_exact_beyond_word_size(self):
        seq = build_counterexample(64)
        assert seq.values[-1] == 4**64 + 64
        assert seq.integer_valued

    @staticmethod
    def _block_max_representations(K):
        """Max over dyadic blocks [4^n, 4^{n+1}) of the representation count
        of m as a difference, by brute force over all ordered pairs."""
        vals = list(build_counterexample(K))
        counts = {}
        for a in vals:
            for b in vals:
                m = a - b
                if m > 0:
                    counts[m] = counts.get(m, 0) + 1
        per_block = {}
        for m, c in counts.items():
            n = 0
            while 4 ** (n + 1) <= m:
                n += 1
            per_block[n] = max(per_block.get(n, 0), c)
        return per_block

    def test_difference_representations_bounded_by_five(self):
        for K in (8, 12, 16, 20):
            per_block = self._block_max_representations(K)
            assert max(per_block.values()) <= 5

    def test_block_maxima_stabilize_as_truncation_grows(self):
        maxima = [
            max(self._block_max_representations(K).values())
            for K in (12, 16, 20)
        ]
        assert len(set(maxima)) == 1

    def test_witness_family_from_consecutive_pairs(self):
        # (lambda^1_{k+l} - lambda^0_{k+l}) - (lambda^1_k - lambda^0_k) = l,
        # so the collision count at threshold L is at least L for L <= K/2.
        K = 16
        seq = build_counterexample(K)
        for L in (2, 4, 8):
            assert zygmund_constant(seq, L).constant >= L


def test_report_serializes_flat():
    rep = zygmund_constant(Sequence((1, 2, 4, 8)), 1)
    d = rep.to_dict()
    assert d["constant"] == 3 and d["kind"] == "zygmund"
    assert isinstance(d["witness"], list)
    inf_rep = LacunarityReport("hadamard", 2.0, math.inf, (), True)
    assert inf_rep.to_dict()["constant"] == "inf"
