from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lacspec.sets import (
    PartitionReport,
    ThickSet,
    good_fraction_bound,
    good_union,
    partition_good_bad,
    periodic_comb,
    thickness,
)


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

    def test_dict_roundtrip(self):
        E = ThickSet(((0.0, 0.25), (0.5, 0.6)), (0.0, 1.0), periodic=True)
        assert ThickSet.from_dict(E.to_dict()) == E


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

    def test_thickness_precondition_enforced(self):
        E = ThickSet(((0.0, 1.0),), (0.0, 3.0))  # a block misses E entirely
        with pytest.raises(ValueError, match="thick"):
            partition_good_bad(E, 1.0, 4, 0.25)

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
