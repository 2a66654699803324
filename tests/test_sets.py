import dataclasses
import math
import pickle
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lacspec import sets
from lacspec.sets import (
    MAX_COMB_BLOCKS,
    PartitionReport,
    ThickSet,
    good_fraction_bound,
    good_union,
    partition_good_bad,
    periodic_comb,
    thickness,
)


def loop_measure_in(E, lo, hi):
    """Oracle: sum the overlap of [lo, hi] with every interval, and for a
    periodic set with every translate of it by a period that meets [lo, hi]."""
    if hi <= lo:
        return 0
    total = 0
    if not E.periodic:
        for a, b in E.intervals:
            total += max(0, min(b, hi) - max(a, lo))
        return total
    w0, P = E.window[0], E.period
    k0 = math.floor(Fraction(lo - w0) / Fraction(P))
    k1 = math.floor(Fraction(hi - w0) / Fraction(P))
    for k in range(k0, k1 + 1):
        off = k * P
        for a, b in E.intervals:
            total += max(0, min(b + off, hi) - max(a + off, lo))
    return total


def _is_exact(*xs):
    return all(isinstance(x, (int, Fraction)) for x in xs)


def loop_thickness(E, Delta):
    """Oracle: the least loop_measure_in over the critical window starts."""
    w0, w1 = E.window
    edges = [t for a, b in E.intervals for t in (a, b, a - Delta, b - Delta)]
    if E.periodic:
        starts = {w0} | {w0 + (t - w0) % E.period for t in edges}
    else:
        starts = {w0, w1 - Delta} | {t for t in edges if w0 <= t <= w1 - Delta}
    best = min(loop_measure_in(E, t, t + Delta) for t in starts)
    return Fraction(best, Delta) if _is_exact(best, Delta) else best / Delta


def loop_partition(E, Delta, L, gamma):
    """Oracle for exact inputs: every length-1/L cell of every block measured
    by loop_measure_in and classified on its own."""
    S = int(L * Delta)
    nb = int(E.period / Delta) if E.periodic else math.floor(E.period / Delta)
    sub = Fraction(Delta) / S
    threshold = Fraction(gamma) / 2 * sub
    good, bad = [], []
    for k in range(nb):
        origin = E.window[0] + k * Delta
        fills = [loop_measure_in(E, origin + j * sub, origin + (j + 1) * sub) > threshold
                 for j in range(S)]
        good.append(tuple(j for j in range(S) if fills[j]))
        bad.append(tuple(j for j in range(S) if not fills[j]))
    return PartitionReport(Delta, L, gamma, tuple(good), tuple(bad),
                           good_fraction_bound(gamma) * S)


@st.composite
def sets_on_a_grid(draw, kinds=("int", "fraction", "float")):
    """A set on the grid of step 1/den: nonzero w0, period P up to 6, and up
    to five intervals that often overlap or touch; periodic or not."""
    kind = draw(st.sampled_from(kinds))
    den = 1 if kind == "int" else draw(st.integers(1, 12))
    num = {"int": int, "fraction": lambda n: Fraction(n, den),
           "float": lambda n: n / den}[kind]
    w0 = draw(st.integers(-40, 40).filter(bool))
    P = draw(st.integers(1, 6 * den))
    cuts = st.integers(w0, w0 + P)
    pieces = draw(st.lists(st.tuples(cuts, cuts).map(sorted), max_size=5))
    E = ThickSet(
        tuple((num(a), num(b)) for a, b in pieces),
        (num(w0), num(w0 + P)),
        draw(st.booleans()),
    )
    return E, num, w0, P


@st.composite
def sets_past_int64(draw):
    """Exact sets whose scaled magnitudes cross 2**62, where int64 would
    overflow: integer ends with a period from 2**60 to 2**63 and a window
    start far from 0, or Fraction ends whose lcm of denominators overflows
    int64 on a short window.  Returns the set and its period."""
    w0 = draw(st.integers(-2**70, 2**70))
    if draw(st.booleans()):
        P = draw(st.integers(2**60, 2**63))
        cuts = st.integers(w0, w0 + P)
    else:
        P = draw(st.integers(1, 4))
        den = st.integers(2**32, 2**40)
        cuts = st.builds(lambda d, u: w0 + Fraction(round(u * P * d), d),
                         den, st.floats(0, 1))
    pieces = draw(st.lists(st.tuples(cuts, cuts).map(sorted), min_size=1, max_size=4))
    return ThickSet(tuple(pieces), (w0, w0 + P), draw(st.booleans())), P


@st.composite
def sets_and_windows(draw):
    """A set and a window [lo, hi] anywhere on the line: exact ends up to a
    million periods away and negative, float ends up to 50 periods away
    (where float rounding of the ends stays far inside the tolerance)."""
    E, num, w0, P = draw(sets_on_a_grid())
    far = 50 if isinstance(E.window[0], float) else 10**6
    lo = w0 + draw(st.integers(-far, far)) * P + draw(st.integers(-P, P))
    hi = lo + draw(st.integers(-P, 30 * P))
    return E, num(lo), num(hi)


class TestThickSet:
    def test_normalizes_intervals(self):
        E = ThickSet(((0.5, 0.7), (0.0, 0.2), (0.2, 0.4)), (0.0, 1.0))
        assert E.intervals == ((0.0, 0.4), (0.5, 0.7))
        assert E.measure == pytest.approx(0.6)

    def test_rejects_out_of_window(self):
        with pytest.raises(ValueError):
            ThickSet(((0.0, 2.0),), (0.0, 1.0))
        with pytest.raises(ValueError):
            ThickSet(((0.5, 0.2),), (0.0, 1.0))

    def test_periodic_measure_in(self):
        E = periodic_comb(Fraction(1, 2), 1, (0, 1))
        assert E.measure_in(0, 4) == 2
        assert E.measure_in(Fraction(1, 4), Fraction(3, 4)) == Fraction(1, 4)
        assert E.measure_in(-1, 0) == Fraction(1, 2)

    @pytest.mark.parametrize("delta", [0, 0.0, -1.0])
    def test_comb_needs_positive_delta(self, delta):
        with pytest.raises(ValueError, match="delta must be positive"):
            periodic_comb(0.5, delta, (0.0, 4.0))

    @pytest.mark.parametrize("delta, window", [
        (1e-300, (0.0, 4.0)), (5e-324, (0.0, 4.0)), (Fraction(1, 10**400), (0, 4)),
    ])
    def test_comb_over_the_block_cap_is_refused_unbuilt(self, delta, window):
        class Unbuildable(type(delta)):
            """A delta whose multiples, the comb's blocks, must not be taken."""

            def __mul__(self, other):
                pytest.fail("a comb block was built")

            __rmul__ = __mul__

        with pytest.raises(ValueError, match=f"delta .* more than {MAX_COMB_BLOCKS} comb"):
            periodic_comb(0.5, Unbuildable(delta), window)

    def test_comb_block_cap_is_inclusive(self, monkeypatch):
        monkeypatch.setattr(sets, "MAX_COMB_BLOCKS", 8)
        assert len(periodic_comb(0.5, 0.5, (0.0, 4.0)).intervals) == 8
        with pytest.raises(ValueError, match="more than 8 comb blocks"):
            periodic_comb(0.5, 0.25, (0.0, 4.0))

    def test_comb_with_an_exact_delta_below_the_float_range(self):
        # float ends and a Fraction delta: the float ratio's delta is 0.0
        with pytest.raises(ValueError, match="delta .* more than .* comb blocks"):
            periodic_comb(0.5, Fraction(1, 10**400), (0.0, 4.0))

    def test_dict_roundtrip(self):
        E = ThickSet(((0.0, 0.25), (0.5, 0.6)), (0.0, 1.0), periodic=True)
        assert ThickSet.from_dict(E.to_dict()) == E

    @pytest.mark.parametrize("periodic", ["no", 1, None])
    def test_periodic_must_be_a_bool(self, periodic):
        with pytest.raises(ValueError, match="periodic must be a bool"):
            ThickSet(((0, 0.5),), (0, 1), periodic)

    def test_from_dict_does_not_coerce_periodic(self):
        record = {"intervals": [[0, 0.5]], "window": [0, 1]}
        assert ThickSet.from_dict(record).periodic is False
        with pytest.raises(ValueError, match="periodic must be a bool, not 'no'"):
            ThickSet.from_dict({**record, "periodic": "no"})

    @given(sets_and_windows())
    @settings(max_examples=400, deadline=None)
    def test_measure_in_matches_the_interval_loop(self, case):
        E, lo, hi = case
        got, want = E.measure_in(lo, hi), loop_measure_in(E, lo, hi)
        if _is_exact(lo, hi, *E.window):
            assert got == want and not isinstance(got, float)
        else:
            assert abs(got - want) <= 1e-12 * max(1, hi - lo)

    def test_long_span_is_one_lookup(self, deadline):
        E = periodic_comb(Fraction(1, 2), 1, (0, 1))
        with deadline(1.0):
            assert E.measure_in(-10**9, 10**9) == 10**9

    @pytest.mark.parametrize("periodic", [False, True])
    def test_measure_table_is_invisible(self, periodic):
        E = ThickSet(((Fraction(1, 3), 1), (2, Fraction(5, 2))), (0, 3), periodic)

        def looks():
            return (hash(E), repr(E), E.to_dict(), ThickSet.from_dict(E.to_dict()),
                    dataclasses.replace(E), pickle.loads(pickle.dumps(E)))

        before = looks()
        assert E.measure_in(-4, 7) == loop_measure_in(E, -4, 7)
        after = looks()
        assert after == before
        assert after[4] == after[5] == E
        assert pickle.loads(pickle.dumps(E)).measure_in(-4, 7) == E.measure_in(-4, 7)


class TestThickness:
    def test_periodic_half_intervals(self):
        E = periodic_comb(Fraction(1, 2), 1, (0, 1))
        assert thickness(E, 1) == Fraction(1, 2)

    def test_full_window(self):
        E = ThickSet(((0, 3),), (0, 3))
        assert thickness(E, 1) == 1

    def test_window_escaping_the_set(self):
        E = ThickSet(((0, 1),), (0, 3))
        assert thickness(E, 1) == 0

    def test_exact_rational_endpoints(self):
        E = ThickSet(
            ((Fraction(1, 3), Fraction(2, 3)),), (Fraction(0), Fraction(1))
        )
        assert thickness(E, Fraction(1, 2)) == Fraction(1, 3)

    def test_validation(self):
        E = periodic_comb(0.5, 1.0, (0.0, 1.0))
        with pytest.raises(ValueError):
            thickness(E, 0)
        with pytest.raises(ValueError):
            thickness(E, 2.0)  # exceeds the period
        with pytest.raises(ValueError):
            thickness(ThickSet(((0.0, 1.0),), (0.0, 1.0)), 1.5)

    def test_periodic_vs_shifted_window_agrees(self):
        # the infimum over translates must see the worst window, which here
        # straddles the period boundary
        E = ThickSet(((0.25, 0.75),), (0.0, 1.0), periodic=True)
        assert thickness(E, Fraction(1, 2)) == 0

    @given(
        st.lists(
            st.tuples(st.integers(0, 90), st.integers(1, 10)),
            min_size=1,
            max_size=4,
        ),
        st.lists(
            st.tuples(st.integers(0, 90), st.integers(1, 10)),
            min_size=0,
            max_size=3,
        ),
        st.integers(5, 40),
    )
    @settings(max_examples=40, deadline=None)
    def test_monotone_under_inclusion(self, base, extra, delta):
        window = (Fraction(0), Fraction(100))
        mk = lambda pairs: tuple(
            (Fraction(a), Fraction(min(a + w, 100))) for a, w in pairs
        )
        small = ThickSet(mk(base), window)
        large = ThickSet(mk(base) + mk(extra), window)
        assert thickness(small, Fraction(delta)) <= thickness(
            large, Fraction(delta)
        )

    def test_bounds(self):
        E = periodic_comb(0.3, 1.0, (0.0, 4.0))
        g = thickness(E, 2.0)
        assert 0 <= g <= 1

    @given(sets_on_a_grid(), st.integers(1, 3), st.integers(1, 2))
    @settings(max_examples=200, deadline=None)
    def test_thickness_and_partition_match_the_loop(self, drawn, blocks, j):
        # Delta = P/blocks tiles the window; for exact P, L*Delta = j * (P's
        # numerator) cells, for float P the partition may refuse L*Delta
        E = drawn[0]
        P = E.period
        exact = _is_exact(P)
        Delta = Fraction(P) / blocks if exact else P / blocks
        L = blocks * j * (Fraction(P).denominator if exact else 1)

        g = thickness(E, Delta)
        if not exact:
            assert abs(g - loop_thickness(E, Delta)) <= 1e-12
            return
        assert repr(g) == repr(loop_thickness(E, Delta))
        if g:
            assert repr(partition_good_bad(E, Delta, L, g)) == repr(
                loop_partition(E, Delta, L, g))

    @given(sets_past_int64(), st.integers(1, 3), st.integers(1, 2), st.data())
    @settings(max_examples=150, deadline=None)
    def test_exact_past_int64_matches_the_loop(self, drawn, blocks, j, data):
        E, P = drawn
        Delta = Fraction(P, blocks)
        g = thickness(E, Delta)
        assert repr(g) == repr(loop_thickness(E, Delta))
        periods = st.integers(-3, 3).map(lambda k: k * P) | st.just(0)
        lo = E.window[0] + data.draw(periods) + data.draw(st.integers(0, P))
        hi = lo + data.draw(periods.map(abs)) + data.draw(st.integers(0, P))
        assert E.measure_in(lo, hi) == loop_measure_in(E, lo, hi)
        if g and P <= 4:  # L*Delta = P*j cells per block, under the cell cap
            L = blocks * j
            assert repr(partition_good_bad(E, Delta, L, g)) == repr(
                loop_partition(E, Delta, L, g))

    def test_exact_past_int64_returns_the_exact_value(self):
        big = 2**64
        E = ThickSet(((Fraction(1, 3), big + Fraction(1, 3)),), (0, 2 * big))
        assert thickness(E, big) == Fraction(1, 3 * big)
        p, q = 2**61 - 1, 2**31 - 1  # primes: the scale p*q is past int64
        E = ThickSet(((0, Fraction(1, p)), (Fraction(1, 2), Fraction(1, 2) + Fraction(1, q))),
                     (0, 1), True)
        g = thickness(E, 1)
        assert g == Fraction(1, p) + Fraction(1, q)
        rep = partition_good_bad(E, 1, 2, g)
        assert (rep.good_indices, rep.bad_indices) == (((1,),), ((0,),))


class TestPartition:
    def test_full_measure_all_good(self):
        E = ThickSet(((0, 2),), (0, 2))
        rep = partition_good_bad(E, 1, 4, 1)
        assert good_fraction_bound(1) == 1
        assert all(len(g) == 4 for g in rep.good_indices)
        assert all(len(b) == 0 for b in rep.bad_indices)
        assert rep.lower_bound == 4

    def test_half_comb_two_good_per_block(self):
        E = periodic_comb(Fraction(1, 2), 1, (0, 4))
        rep = partition_good_bad(E, 1, 4, Fraction(1, 2))
        # E fills [k, k+1/2]: the first two quarter cells exceed the
        # (gamma/2)/L = 1/16 threshold, the last two are empty
        assert all(g == (0, 1) for g in rep.good_indices)
        assert all(b == (2, 3) for b in rep.bad_indices)
        assert rep.lower_bound == Fraction(4, 3)
        assert all(len(g) >= rep.lower_bound for g in rep.good_indices)

    def test_cells_over_the_cap_are_refused_unclassified(self, deadline):
        E = ThickSet(((0.0, 1e12),), (0.0, 1e12))
        with deadline(2.0):
            with pytest.raises(ValueError, match=f"over {MAX_COMB_BLOCKS} cells"):
                partition_good_bad(E, 1.0, 1, 1.0)

    def test_cell_cap_is_inclusive(self, monkeypatch):
        monkeypatch.setattr(sets, "MAX_COMB_BLOCKS", 8)
        assert len(partition_good_bad(ThickSet(((0, 2),), (0, 2)), 1, 4, 1).good_indices) == 2
        with pytest.raises(ValueError, match="3 blocks of 4 cells: over 8 cells"):
            partition_good_bad(ThickSet(((0, 3),), (0, 3)), 1, 4, 1)

    def test_thickness_precondition_enforced(self):
        E = ThickSet(((0.0, 1.0),), (0.0, 3.0))  # a block misses E entirely
        with pytest.raises(ValueError, match="thick"):
            partition_good_bad(E, 1.0, 4, 0.25)

    def test_exact_claim_is_compared_exactly(self):
        # thickness 1/2 - 10**-13: the float tolerance would accept gamma = 1/2
        E = periodic_comb(Fraction(1, 2) - Fraction(1, 10**13), 1, (0, 4))
        with pytest.raises(ValueError, match=r"only \(1, 4999999999999/10000000000000\)-thick"):
            partition_good_bad(E, 1, 2, Fraction(1, 2))
        # float inputs keep the tolerance
        E = periodic_comb(0.5 - 1e-13, 1.0, (0.0, 4.0))
        assert partition_good_bad(E, 1.0, 2, 0.5).good_indices == ((0,),) * 4

    def test_exact_block_count_is_exact(self):
        # (w1 - w0)/Delta is 10**-13 short of 3: two whole blocks, not three
        w1 = 3 - Fraction(1, 10**13)
        rep = partition_good_bad(ThickSet(((0, w1),), (0, w1)), 1, 1, 1)
        assert rep.good_indices == ((0,), (0,))

    @pytest.mark.parametrize("one, half", [(1, Fraction(1, 2)), (1.0, 0.5)])
    def test_partition_at_the_cell_cap_is_one_pass(self, deadline, one, half):
        E = periodic_comb(half, one, (0 * one, 1000 * one))  # 1000 blocks of 1000 cells
        with deadline(5.0):
            rep = partition_good_bad(E, one, 1000, half)
        assert len(rep.good_indices) * 1000 == MAX_COMB_BLOCKS
        assert all(g == tuple(range(500)) for g in rep.good_indices)

    def test_non_integer_subdivision_rejected(self):
        E = ThickSet(((0.0, 2.0),), (0.0, 2.0))
        with pytest.raises(ValueError, match="integer"):
            partition_good_bad(E, 0.75, 2, 1.0)

    def test_boundary_measure_counts_as_bad(self):
        # cell 0 holds exactly (gamma/2) * |cell|: strict inequality fails
        E = ThickSet(((Fraction(0), Fraction(1, 16)),
                      (Fraction(1, 2), Fraction(1),)), (Fraction(0), Fraction(1)))
        rep = partition_good_bad(E, 1, 4, Fraction(1, 2))
        assert 0 in rep.bad_indices[0]

    @given(st.integers(1, 8), st.integers(0, 1000))
    @settings(max_examples=30, deadline=None)
    def test_certified_bound_on_random_thick_sets(self, L, seed):
        rng = np.random.default_rng(seed)
        gamma = Fraction(rng.integers(1, 10).item(), 16)
        E = periodic_comb(gamma, 1, (0, 4))
        rep = partition_good_bad(E, 1, L, gamma)
        bound = good_fraction_bound(gamma) * L
        for g in rep.good_indices:
            assert len(g) >= bound

    def test_good_union_is_thick_at_doubled_delta(self):
        gamma = Fraction(1, 2)
        E = periodic_comb(gamma, 1, (0, 4))
        rep = partition_good_bad(E, 1, 4, gamma)
        xi = good_union(E, rep)
        assert thickness(xi, 2) >= good_fraction_bound(gamma) / 2

    def test_report_dict(self):
        E = ThickSet(((0, 2),), (0, 2))
        d = partition_good_bad(E, 1, 2, 1).to_dict()
        assert d["L"] == 2 and len(d["good_indices"]) == 2


def comb_by_blocks(gamma, delta, window):
    """Oracle: the comb built block by block in the numbers of its ends, as
    ThickSet normalizes it."""
    w0, w1 = window
    fill = gamma * delta
    nb = round((w1 - w0) / delta)
    return ThickSet(tuple((w0 + k * delta, w0 + k * delta + fill) for k in range(nb)),
                    (w0, w1), True)


exact_numbers = st.one_of(st.integers(-3, 3), st.fractions(-3, 3, max_denominator=12))


class TestExactComb:
    @given(st.one_of(st.fractions(0, 1, max_denominator=12).filter(lambda g: g > 0),
                     st.sampled_from([1, True, Fraction(1)])),
           st.one_of(st.integers(1, 3), st.fractions(0, 3, max_denominator=12).filter(bool)),
           exact_numbers, st.integers(1, 40), st.sampled_from([0, 1, 2**70]))
    @example(Fraction(1, 2), 2, 10**30, 4, 0)  # ends past int64
    @settings(max_examples=300, deadline=None)
    def test_matches_the_comb_built_block_by_block(self, gamma, delta, w0, nb, shift):
        w0 = w0 + shift
        window = (w0, w0 + nb * delta)
        E, want = periodic_comb(gamma, delta, window), comb_by_blocks(gamma, delta, window)
        assert E.window == want.window and E.periodic
        assert E.measure == want.measure and type(E.measure) is type(want.measure)
        assert E.intervals == want.intervals
        assert [tuple(map(type, iv)) for iv in E.intervals] == \
            [tuple(map(type, iv)) for iv in want.intervals]
        assert E == want and hash(E) == hash(want)
        for D in (delta, 2 * delta, Fraction(1, 3), delta * nb):
            for a, b in ((E, want), (want, E)):  # the stored table answers, then the built one
                got = thickness(a, D) if D <= a.period else None
                assert got == (thickness(b, D) if D <= b.period else None)
                assert type(got) is type(thickness(b, D) if D <= b.period else None)
        assert pickle.loads(pickle.dumps(E)) == want

    def test_stored_table_is_the_table_of_its_intervals(self):
        E = periodic_comb(Fraction(1, 3), Fraction(1, 7), (Fraction(2, 5), Fraction(2, 5) + 3))
        scale, *tables = E._exact_table
        rebuilt = ThickSet(E.intervals, E.window, True)._exact_table
        assert scale == rebuilt[0]
        assert all(t.dtype == r.dtype and np.array_equal(t, r) for t, r in zip(tables, rebuilt[1:]))

    def test_comb_at_the_block_cap_builds_no_interval_until_read(self, deadline):
        with deadline(1.0):
            E = periodic_comb(Fraction(1, 2), Fraction(1, 10**6), (0, 1))
            assert E.measure == Fraction(1, 2)
        assert "intervals" not in vars(E)
        assert E._exact_table[0] == 2 * 10**6 and E._exact_table[1].dtype == np.int64
