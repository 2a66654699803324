import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import quad

from lacspec.sequences import Sequence
from lacspec.uniqueness import (
    BumpFunction,
    carleman_denjoy_partial,
    log_weight,
    omega_diagnostics,
    omega_weight,
    separation_condition,
    smoothstep_bump,
)

E = math.e


@pytest.fixture(scope="module")
def phi():
    return smoothstep_bump()


def powers_of_four(count):
    return Sequence(tuple(4**n for n in range(1, count + 1)))


class TestSmoothstepBump:
    def test_plateau_and_support(self, phi):
        assert phi(0.0) == 1.0
        assert phi(0.5) == 1.0
        assert phi(-0.5) == 1.0
        assert phi(1.0) == 0.0
        assert phi(-1.0) == 0.0
        assert phi(1.5) == 0.0

    def test_bounded_between_zero_and_one(self, phi):
        xs = np.linspace(-1.2, 1.2, 2001)
        vals = phi(xs)
        assert vals.min() >= 0.0 and vals.max() <= 1.0

    def test_derivative_sup_is_three(self, phi):
        assert phi.derivative_sup() == pytest.approx(3.0, abs=1e-12)
        # restricted to the plateau the derivative vanishes
        assert phi.derivative_sup(-0.4, 0.4) == 0.0

    def test_derivative_sup_on_partial_shoulder(self, phi):
        # |phi'| = 24 (2x - 1)(x - 1) on the right shoulder, increasing
        # from 0.5 to its peak at 0.75
        sup = phi.derivative_sup(0.5, 0.6)
        assert sup == pytest.approx(abs(24 * (2 * 0.6 - 1) * (0.6 - 1)), abs=1e-12)

    def test_validation_of_bad_pieces(self):
        with pytest.raises(ValueError, match="C\\^1"):
            BumpFunction(((-1.0, 0.0, (1.0,)), (0.0, 1.0, (2.0,))))


class TestSeparationCondition:
    def test_powers_of_four_hold(self):
        rep = separation_condition(powers_of_four(50), 50)
        assert rep.all_hold
        # comparison series: sum 1/(n log 4)^2 < pi^2 / (6 log^2 4)
        assert rep.partial_sum < math.pi**2 / (6 * math.log(4) ** 2)

    def test_linear_sequence_fails_and_is_located(self):
        seq = Sequence(tuple(n + 2 for n in range(1, 201)))
        rep = separation_condition(seq, 200)
        assert not rep.all_hold
        assert rep.first_failure == 1
        assert rep.holds[0] is False

    def test_enormous_gap_holds(self):
        rep = separation_condition(Sequence((4, 10**6)), 2)
        assert rep.all_hold

    def test_terms_at_or_below_e_rejected_by_index(self):
        with pytest.raises(ValueError, match="term 1"):
            separation_condition(Sequence((2.5, 4, 10)), 3)

    def test_prefix_length_validated(self):
        with pytest.raises(ValueError):
            separation_condition(Sequence((4, 16)), 3)


class TestOmegaWeight:
    def test_zero_between_bumps(self, phi):
        seq = powers_of_four(10)
        # midpoint between consecutive supports
        x = (4.0**3 + 4.0**3 / math.log(4.0**3) + 4.0**4 - 4.0**4 / math.log(4.0**4)) / 2
        assert omega_weight(x, seq, phi) == 0.0

    def test_peak_value_at_each_frequency(self, phi):
        seq = powers_of_four(10)
        for n in (1, 5, 10):
            lam = 4.0**n
            assert omega_weight(lam, seq, phi) == pytest.approx(
                lam / math.log(lam), rel=1e-12
            )

    def test_constant_on_unit_spectral_interval(self, phi):
        # log(lam)/lam < 1/2 for lam > e, so the plateau covers [lam, lam+1]
        seq = powers_of_four(10)
        lam = 4.0**5
        xs = np.linspace(lam, lam + 1, 33)
        np.testing.assert_allclose(
            omega_weight(xs, seq, phi), lam / math.log(lam), rtol=1e-12
        )

    def test_overlapping_supports_rejected(self, phi):
        with pytest.raises(ValueError, match="overlap"):
            omega_weight(3.0, Sequence((3.0, 3.5)), phi)

    def test_vectorized_matches_scalar(self, phi):
        seq = powers_of_four(6)
        xs = np.linspace(1.0, 5000.0, 257)
        vec = omega_weight(xs, seq, phi)
        assert vec.shape == xs.shape
        for x, v in zip(xs[::16], vec[::16]):
            assert omega_weight(float(x), seq, phi) == v


class TestOmegaDiagnostics:
    def test_empty_sequence(self, phi):
        T = 100.0
        diag = omega_diagnostics(Sequence(()), phi, T)
        assert diag.lipschitz_bound == 0.0
        assert diag.tail_integral == 0.0
        assert diag.domination_constant == pytest.approx(T / math.log(E + T))

    def test_lipschitz_bound_is_derivative_sup(self, phi):
        seq = powers_of_four(10)
        diag = omega_diagnostics(seq, phi, 4.0**11)
        assert diag.lipschitz_bound == pytest.approx(phi.derivative_sup(), abs=1e-12)
        assert diag.lipschitz_bound <= phi.derivative_sup() + 1e-12

    def test_finite_difference_scan_never_beats_bound(self, phi):
        seq = powers_of_four(4)
        bound = omega_diagnostics(seq, phi, 4.0**5).lipschitz_bound
        h = 1e-4
        xs = np.arange(1.0, 4.0**4 + 40.0, h)
        vals = omega_weight(xs, seq, phi)
        slopes = np.abs(np.diff(vals)) / h
        assert slopes.max() <= bound + 1e-6

    def test_tail_integral_matches_quadrature(self, phi):
        seq = powers_of_four(7)
        T = 4.0**8
        diag = omega_diagnostics(seq, phi, T)
        oracle = 0.0
        for v in seq.values:
            lam = float(v)
            r = lam / math.log(lam)
            lo, hi = max(1.0, lam - r), min(T, lam + r)
            piece, _ = quad(
                lambda x: omega_weight(x, seq, phi) / x**2, lo, hi, limit=200
            )
            oracle += piece
        assert diag.tail_integral == pytest.approx(oracle, abs=1e-8)

    def test_tail_integral_tracks_log_sum_within_factor_four(self, phi):
        seq = powers_of_four(10)
        diag = omega_diagnostics(seq, phi, 4.0**10)
        log_sum = sum(1.0 / math.log(4.0**n) ** 2 for n in range(1, 11))
        ratio = diag.tail_integral / log_sum
        assert 0.25 <= ratio <= 4.0

    def test_domination_constant_stable_under_range_growth(self, phi):
        seq = powers_of_four(10)
        d1 = omega_diagnostics(seq, phi, 4.0**7).domination_constant
        d2 = omega_diagnostics(seq, phi, 4.0**8).domination_constant
        assert d2 <= d1 + 1.0  # bounded increment: no blow-up with the range

    def test_domination_inequality_holds_on_spectral_set(self, phi):
        seq = powers_of_four(8)
        T = 4.0**8 + 2.0
        diag = omega_diagnostics(seq, phi, T)
        for n in range(1, 9):
            xs = np.linspace(4.0**n, 4.0**n + 1.0, 17)
            lhs = xs / np.log(E + xs)
            rhs = diag.domination_constant + omega_weight(xs, seq, phi)
            assert np.all(lhs <= rhs + 1e-9)


@pytest.fixture(scope="module")
def report():
    return carleman_denjoy_partial(200, 1e4)


class TestCarlemanDenjoy:
    def test_first_moment_is_weight_at_left_endpoint(self, report):
        # the n = 0 objective decreases in xi, so the sup sits at xi = 1
        assert report.M_values[0] == pytest.approx(
            math.exp(-log_weight(1.0)), rel=1e-12
        )

    def test_moments_increase_and_are_log_convex(self, report):
        lm = report.log_M
        assert all(lm[n] >= lm[n - 1] - 1e-9 for n in range(1, len(lm)))
        assert all(
            2 * lm[n] <= lm[n - 1] + lm[n + 1] + 1e-9
            for n in range(1, len(lm) - 1)
        )

    def test_mu_non_increasing(self, report):
        mu = report.mu_values
        assert all(mu[i + 1] <= mu[i] * (1 + 1e-9) for i in range(len(mu) - 1))

    def test_partial_sums_strictly_increase(self, report):
        ps = report.partial_sums
        assert all(b > a for a, b in zip(ps, ps[1:]))

    def test_proxy_integral_grows_with_range(self, report):
        proxy = report.integral_proxy
        assert [t for t, _ in proxy] == sorted(t for t, _ in proxy)
        vals = [v for _, v in proxy]
        assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_long_run_growth(self):
        rep = carleman_denjoy_partial(10_000, 1e4)
        assert rep.partial_sums[9999] > rep.partial_sums[99]

    def test_validation(self):
        with pytest.raises(ValueError):
            carleman_denjoy_partial(0, 100.0)
        with pytest.raises(ValueError):
            carleman_denjoy_partial(10, 1.0)


def test_import_leaves_scipy_unloaded():
    # scipy is needed only by uniqueness.quad and costs ~0.6 s to load; the
    # benchmark's trace wraps that module attribute, so it must stay there
    src = Path(__file__).resolve().parents[1] / "src"
    code = (
        "import sys, lacspec, lacspec.uniqueness as u; assert callable(u.quad); "
        "print(any(m.startswith('scipy') for m in sys.modules))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True, text=True, check=True,
    )
    assert proc.stdout.strip() == "False"
