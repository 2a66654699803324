"""Thick subsets of the line as finite unions of closed intervals.

Endpoint arithmetic stays in whatever number type the caller supplies, so
integer or ``fractions.Fraction`` inputs are handled exactly; float inputs
fall back to the documented 1e-12 tolerance on measure comparisons.  Window
measures are differences of one cumulative measure.  Density infima are
attained where a window edge meets a set edge, so they are computed over
that finite critical set rather than by scanning.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import accumulate

from .errors import NumericalError

__all__ = [
    "ThickSet",
    "PartitionReport",
    "thickness",
    "partition_good_bad",
    "good_fraction_bound",
    "good_union",
    "periodic_comb",
]

MEASURE_TOL = 1e-12
MAX_COMB_BLOCKS = 10**6  # also caps the cells of partition_good_bad


def _is_exact(*xs) -> bool:
    return all(isinstance(x, (int, Fraction)) for x in xs)


def _check_finite(what: str, *ends) -> None:
    """Refuse a non-finite float end; exact ends are finite and are not converted."""
    if any(not _is_exact(x) and not math.isfinite(x) for x in ends):
        raise ValueError(f"{what} ({', '.join(map(str, ends))}) has a non-finite end")


def _ratio(num, den):
    if _is_exact(num, den):
        return Fraction(num, den) if den != 0 else Fraction(0)
    return num / den


@dataclass(frozen=True)
class ThickSet:
    """Finite union of disjoint closed intervals inside a working window.

    Intervals are normalized on construction: sorted, overlapping or touching
    pieces merged, zero-length pieces dropped.  With ``periodic`` set, the
    pattern tiles the line with period equal to the window length.  The
    prefix measures behind ``measure`` and ``measure_in`` are built on first
    use and kept on the instance, outside ==, hash and repr.
    """

    intervals: tuple
    window: tuple
    periodic: bool = False

    def __post_init__(self):
        w0, w1 = self.window
        _check_finite("window", w0, w1)
        if not w0 < w1:
            raise ValueError("window must have positive length")
        cleaned = []
        for a, b in self.intervals:
            if b < a:
                raise ValueError(f"interval ({a}, {b}) is reversed")
            if not (w0 <= a and b <= w1):  # also a NaN end, which fails every comparison
                _check_finite("interval", a, b)
                raise ValueError(f"interval ({a}, {b}) leaves the window")
            if b > a:
                cleaned.append((a, b))
        cleaned.sort()
        merged: list[list] = []
        for a, b in cleaned:
            if merged and a <= merged[-1][1]:
                merged[-1][1] = max(merged[-1][1], b)
            else:
                merged.append([a, b])
        object.__setattr__(self, "intervals", tuple((a, b) for a, b in merged))
        object.__setattr__(self, "window", (w0, w1))

    @property
    def measure(self):
        return self._prefix[-1]

    @property
    def period(self):
        return self.window[1] - self.window[0]

    @cached_property
    def _prefix(self) -> list:
        """_prefix[i] is the measure of the first i intervals, summed exactly."""
        return list(accumulate((b - a for a, b in self.intervals), initial=0))

    def _cumulative(self, x):
        """F(x) = measure in [w0, x], negative left of w0 for a periodic set:
        k = floor((x - w0)/P) whole periods plus the rest, folded into [w0, w1)."""
        k = 0
        if self.periodic:
            k = math.floor(_ratio(x - self.window[0], self.period))
            x -= k * self.period
        i = bisect_right(self.intervals, x, key=lambda iv: iv[0])
        b = self.intervals[i - 1][1] if i else x
        return k * self.measure + self._prefix[i] - max(0, b - x)

    def measure_in(self, lo, hi):
        """Measure of the (periodized, if applicable) set in [lo, hi], F(hi) - F(lo)."""
        return 0 if hi <= lo else self._cumulative(hi) - self._cumulative(lo)

    def to_dict(self) -> dict:
        return {
            "intervals": [[float(a), float(b)] for a, b in self.intervals],
            "window": [float(self.window[0]), float(self.window[1])],
            "periodic": self.periodic,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "ThickSet":
        return cls(
            tuple((a, b) for a, b in d["intervals"]),
            tuple(d["window"]),
            bool(d.get("periodic", False)),
        )


def thickness(E: ThickSet, Delta):
    """Infimum over length-Delta windows of the relative measure of E.

    Non-periodic sets range the window inside E's own window; periodic sets
    range over all translates modulo the period.  The infimum of the
    piecewise-linear window measure is attained at an endpoint alignment, so
    the evaluation set is exact.
    """
    if Delta <= 0:
        raise ValueError("window length Delta must be positive")
    w0, w1 = E.window
    edges = [t for a, b in E.intervals for t in (a, b, a - Delta, b - Delta)]
    if E.periodic:
        P = E.period
        if Delta > P:
            raise ValueError("window length Delta must not exceed the period")
        candidates = {w0} | {w0 + (t - w0) % P for t in edges}
    else:
        if Delta > w1 - w0:
            raise ValueError("window length Delta must fit inside the window")
        candidates = {w0, w1 - Delta} | {t for t in edges if w0 <= t <= w1 - Delta}
    best = min(E.measure_in(t, t + Delta) for t in candidates)
    return _ratio(best, Delta)


def good_fraction_bound(gamma):
    """Certified lower bound (gamma/2) / (1 - gamma/2) on the good fraction."""
    half = _ratio(gamma, 2)
    return _ratio(half, 1 - half)


@dataclass(frozen=True)
class PartitionReport:
    """Good/bad classification of the length-1/L subintervals per block."""

    Delta: float
    L: int
    gamma: float
    good_indices: tuple  # one tuple of subinterval indices per block
    bad_indices: tuple
    lower_bound: float  # certified per-block minimum of the good count

    def to_dict(self) -> dict:
        return {
            "Delta": float(self.Delta),
            "L": self.L,
            "gamma": float(self.gamma),
            "good_indices": [list(g) for g in self.good_indices],
            "bad_indices": [list(b) for b in self.bad_indices],
            "lower_bound": float(self.lower_bound),
        }


def _as_integer(x, tol=1e-9):
    if isinstance(x, int):
        return x
    if isinstance(x, Fraction):
        return int(x) if x.denominator == 1 else None
    r = round(x)
    return r if abs(x - r) <= tol else None


def partition_good_bad(E: ThickSet, Delta, L: int, gamma) -> PartitionReport:
    """Split each length-Delta block into L*Delta subintervals of length 1/L
    and classify each as good (E fills strictly more than the gamma/2
    fraction) or bad.

    Requires L*Delta to be an integer and E to actually be (Delta, gamma)-
    thick; the certified bound good_count >= good_fraction_bound(gamma)*L*Delta
    is re-checked on every block.  Subintervals with E-measure exactly at the
    gamma/2 boundary are classified bad.  More than MAX_COMB_BLOCKS cells
    are refused before the first is classified.
    """
    if L < 1:
        raise ValueError("subdivision L must be a positive integer")
    if not 0 < gamma <= 1:
        raise ValueError("gamma must lie in (0, 1]")
    S = _as_integer(L * Delta)
    if S is None or S < 1:
        raise ValueError(f"L*Delta = {L * Delta} is not a positive integer")
    actual = thickness(E, Delta)
    if actual < gamma - MEASURE_TOL:
        raise ValueError(
            f"precondition violated: set is only ({Delta}, {actual})-thick, "
            f"gamma = {gamma} was claimed"
        )
    w0, w1 = E.window
    if E.periodic:
        nb = _as_integer(_ratio(E.period, Delta))
        if nb is None:
            raise ValueError("period must be an integer multiple of Delta")
    else:
        nb = math.floor(_ratio(w1 - w0, Delta) + MEASURE_TOL)
        if nb < 1:
            raise ValueError("window shorter than one block")
    if nb * S > MAX_COMB_BLOCKS:
        raise ValueError(f"{nb} blocks of {S} cells: over {MAX_COMB_BLOCKS} cells to classify")
    sub = _ratio(Delta, S)
    threshold = _ratio(gamma, 2) * sub
    good_all, bad_all = [], []
    bound = good_fraction_bound(gamma) * S
    for k in range(nb):
        origin = w0 + k * Delta
        good, bad = [], []
        for j in range(S):
            lo = origin + j * sub
            m = E.measure_in(lo, lo + sub)
            (good if m > threshold else bad).append(j)
        if len(good) < bound - MEASURE_TOL:
            raise NumericalError(
                f"certified good-count bound failed on block {k}: "
                f"{len(good)} < {bound}"
            )
        good_all.append(tuple(good))
        bad_all.append(tuple(bad))
    return PartitionReport(
        Delta, L, gamma, tuple(good_all), tuple(bad_all), bound
    )


def good_union(E: ThickSet, report: PartitionReport) -> ThickSet:
    """Union of the good subintervals, as a thick set on E's window."""
    sub = _ratio(1, report.L)
    pieces = []
    for k, good in enumerate(report.good_indices):
        origin = E.window[0] + k * report.Delta
        for j in good:
            lo = origin + j * sub
            pieces.append((lo, lo + sub))
    return ThickSet(tuple(pieces), E.window, E.periodic)


def periodic_comb(gamma, delta, window=(0, 1)) -> ThickSet:
    """Model thick set: the left gamma-fraction of every length-delta block,
    periodic with the window as its period.

    A comb of more than MAX_COMB_BLOCKS blocks is refused before any block
    is built, so that a tiny delta fails at once instead of filling memory.
    """
    if not 0 < gamma <= 1:
        raise ValueError("gamma must lie in (0, 1]")
    if not delta > 0:
        raise ValueError("delta must be positive")
    w0, w1 = window
    _check_finite("window", w0, w1)
    try:
        blocks = _ratio(w1 - w0, delta)
    except ZeroDivisionError:  # float ends and an exact delta that rounds to 0.0
        blocks = math.inf
    if blocks > MAX_COMB_BLOCKS:
        raise ValueError(
            f"delta {delta!r} makes more than {MAX_COMB_BLOCKS} comb blocks "
            f"over [{w0}, {w1}]"
        )
    nb = _as_integer(blocks)
    if nb is None or nb < 1:
        raise ValueError("window must hold an integer number of blocks")
    fill = gamma * delta
    pieces = tuple(
        (w0 + k * delta, w0 + k * delta + fill) for k in range(nb)
    )
    return ThickSet(pieces, (w0, w1), True)
