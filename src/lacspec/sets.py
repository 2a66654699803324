"""Thick subsets of the line as finite unions of closed intervals.

Endpoint arithmetic stays in whatever number type the caller supplies, so
integer or ``fractions.Fraction`` inputs are handled exactly; float inputs
fall back to the documented 1e-12 tolerance on measure comparisons.  Window
measures are differences of one cumulative measure F, evaluated for all the
query points of a call in one numpy pass.  Exact inputs are measured from
the window start and scaled to one integer denominator, the lcm of the
denominators of the set's ends and of the call's values: int64 while every
scaled magnitude stays below 2**62, an object array of Python ints beyond,
so exact values never pass through float.  Float inputs take the same code
in float64.  Density infima are attained where a window edge meets a set
edge, so they are computed over that finite critical set rather than by
scanning.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import NamedTuple

import numpy as np

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
_INT64_REACH = 2**62  # exact frames stay in int64 below this scaled magnitude


def _is_exact(*xs) -> bool:
    return all(isinstance(x, (int, Fraction)) for x in xs)


def _check_finite(what: str, *ends) -> None:
    """Refuse a non-finite float end; exact ends are finite and are not converted."""
    if any(not _is_exact(x) and not math.isfinite(x) for x in ends):
        raise ValueError(f"{what} ({', '.join(map(str, ends))}) has a non-finite end")


def _tol(*xs):
    """Slack of a comparison: none between exact numbers, MEASURE_TOL with a float."""
    return 0 if _is_exact(*xs) else MEASURE_TOL


def _ratio(num, den):
    if _is_exact(num, den):
        return Fraction(num, den) if den != 0 else Fraction(0)
    return num / den


class _Frame(NamedTuple):
    """A set in the number frame of one call.

    An exact frame holds a point x as the integer (x - origin) * scale and a
    length l as l * scale; a float frame (scale None) holds both as floats.
    ends[i] closes the interval that starts at starts[i - 1]; ends[0] is
    unused.  prefix[i] is the measure of the first i intervals.
    """

    scale: int | None
    origin: object
    w0: object
    period: object
    starts: np.ndarray
    ends: np.ndarray
    prefix: np.ndarray
    periodic: bool

    def length(self, x):
        return float(x) if self.scale is None else (x * self.scale).numerator

    def at(self, x):
        return float(x) if self.scale is None else self.length(x - self.origin)

    def floor(self, x):
        """The largest frame length at most x, so m > x exactly when m > floor(x)."""
        if self.scale is not None:
            return math.floor(Fraction(x) * self.scale)
        f = float(x)
        return math.nextafter(f, -math.inf) if f > x else f

    def value(self, m):
        """A frame length m back in the caller's units."""
        return float(m) if self.scale is None else Fraction(int(m), self.scale)

    def cumulative(self, x: np.ndarray) -> np.ndarray:
        """F(x) = measure in [w0, x], negative left of w0 for a periodic set:
        k = floor((x - w0)/P) whole periods plus the rest, folded into [w0, w1)."""
        k = 0
        if self.periodic:
            d = x - self.w0
            k = np.floor(d / self.period) if self.scale is None else d // self.period
            x = x - k * self.period
        i = np.searchsorted(self.starts, x, side="right")
        over = np.where(i > 0, self.ends[i] - x, 0)
        return k * self.prefix[-1] + self.prefix[i] - np.maximum(over, 0)


def _table(starts: list, ends: list, dtype):
    """starts, ends (with the unused leading entry) and prefix measures as arrays."""
    starts, ends = np.array(starts, dtype=dtype), np.array(ends, dtype=dtype)
    prefix = np.concatenate((np.zeros(1, dtype), np.cumsum(ends - starts)))
    return starts, np.concatenate((np.zeros(1, dtype), ends)), prefix


@dataclass(frozen=True)
class ThickSet:
    """Finite union of disjoint closed intervals inside a working window.

    Intervals are normalized on construction: sorted, overlapping or touching
    pieces merged, zero-length pieces dropped.  With ``periodic`` set, the
    pattern tiles the line with period equal to the window length.  The
    measure and the interval tables behind ``measure_in``, ``thickness`` and
    ``partition_good_bad`` are built on first use and kept on the instance,
    outside ==, hash and repr.  An exact comb of ``periodic_comb`` is built
    from its table instead, and its intervals are made on first read.
    """

    intervals: tuple
    window: tuple
    periodic: bool = False

    def __post_init__(self):
        if not isinstance(self.periodic, bool):
            raise ValueError(f"periodic must be a bool, not {self.periodic!r}")
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

    def __getattr__(self, name):
        """The intervals of a comb built by ``_exact_comb``, on their first
        read: its exact table in the types of its ends, kept.  Runs only
        when the intervals are not yet in the instance."""
        if name != "intervals" or "_comb_ends" not in self.__dict__:
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        scale, starts, ends, _ = self._exact_table
        w0s, *types = self._comb_ends
        columns = [[x + w0s for x in col.tolist()] for col in (starts, ends[1:])]
        columns = [[x // scale for x in c] if t is int else [Fraction(x, scale) for x in c]
                   for c, t in zip(columns, types)]
        intervals = tuple(zip(*columns))
        object.__setattr__(self, "intervals", intervals)
        return intervals

    @cached_property
    def measure(self):
        """Total length of the intervals, summed exactly for exact ends."""
        return sum((b - a for a, b in self.intervals), 0)

    @property
    def period(self):
        return self.window[1] - self.window[0]

    @cached_property
    def _exact_table(self):
        """(scale, starts, ends, prefix) of an exact set at the lcm of its
        denominators, in int64 while period * scale < _INT64_REACH; None for a
        set with a float end."""
        w0, w1 = self.window
        ends = [t for iv in self.intervals for t in iv]
        if not _is_exact(w0, w1, *ends):
            return None
        scale = math.lcm(w0.denominator, w1.denominator, *(t.denominator for t in ends))
        w0s = w0.numerator * (scale // w0.denominator)
        ticks = [t.numerator * (scale // t.denominator) - w0s for t in ends]
        dtype = np.int64 if self.period * scale < _INT64_REACH else object
        return (scale, *_table(ticks[0::2], ticks[1::2], dtype))

    @cached_property
    def _float_table(self):
        return _table([float(a) for a, _ in self.intervals],
                      [float(b) for _, b in self.intervals], np.float64)

    def _frame(self, values, reach) -> _Frame:
        """The frame of a call that meets the numbers ``values`` and queries F
        at points within ``reach`` of the window start: exact when the set and
        the values are, in int64 while (reach + period) * scale < _INT64_REACH."""
        w0 = self.window[0]
        exact = self._exact_table
        if exact is None or not _is_exact(*values):
            tables = self._float_table
            return _Frame(None, w0, float(w0), float(self.period), *tables, self.periodic)
        own, *tables = exact
        scale = math.lcm(own, *(v.denominator for v in values))
        dtype = np.int64 if (reach + self.period) * scale < _INT64_REACH else object
        tables = [t.astype(dtype, copy=False) * (scale // own) for t in tables]
        period = (self.period * scale).numerator
        return _Frame(scale, w0, 0, period, *tables, self.periodic)

    def measure_in(self, lo, hi):
        """Measure of the (periodized, if applicable) set in [lo, hi], F(hi) - F(lo)."""
        if hi <= lo:
            return 0
        w0 = self.window[0]
        frame = self._frame((lo, hi), max(abs(lo - w0), abs(hi - w0)))
        F = frame.cumulative(np.array([frame.at(lo), frame.at(hi)], frame.starts.dtype))
        return frame.value(F[1] - F[0])

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
            d.get("periodic", False),
        )


def thickness(E: ThickSet, Delta):
    """Infimum over length-Delta windows of the relative measure of E.

    Non-periodic sets range the window inside E's own window; periodic sets
    range over all translates modulo the period.  The infimum of the
    piecewise-linear window measure is attained at an endpoint alignment, so
    the evaluation set is exact.
    """
    if not Delta > 0:  # also a NaN Delta
        raise ValueError("window length Delta must be positive")
    w0, w1 = E.window
    if E.periodic:
        if Delta > E.period:
            raise ValueError("window length Delta must not exceed the period")
    elif Delta > w1 - w0:
        raise ValueError("window length Delta must fit inside the window")
    frame = E._frame((Delta,), E.period + Delta)
    D = frame.length(Delta)
    starts, ends = frame.starts, frame.ends[1:]
    edges = np.concatenate((starts, ends, starts - D, ends - D))
    if E.periodic:
        fixed = [frame.w0]
        edges = frame.w0 + (edges - frame.w0) % frame.period
    else:
        fixed = [frame.w0, frame.at(w1) - D]
        edges = edges[(fixed[0] <= edges) & (edges <= fixed[1])]
    t = np.concatenate((np.array(fixed, frame.starts.dtype), edges))
    best = (frame.cumulative(t + D) - frame.cumulative(t)).min()
    return frame.value(best) / Delta


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
    if not math.isfinite(x):
        return None
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
    are refused before the first is classified.  All cells are measured in
    one pass; exact inputs are compared exactly, float inputs within
    MEASURE_TOL.
    """
    if L < 1:
        raise ValueError("subdivision L must be a positive integer")
    if not 0 < gamma <= 1:
        raise ValueError("gamma must lie in (0, 1]")
    S = _as_integer(L * Delta)
    if S is None or S < 1:
        raise ValueError(f"L*Delta = {L * Delta} is not a positive integer")
    actual = thickness(E, Delta)
    if actual < gamma - _tol(actual, gamma):
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
        blocks = _ratio(w1 - w0, Delta)
        nb = math.floor(blocks + _tol(blocks))
        if nb < 1:
            raise ValueError("window shorter than one block")
    if nb * S > MAX_COMB_BLOCKS:
        raise ValueError(f"{nb} blocks of {S} cells: over {MAX_COMB_BLOCKS} cells to classify")
    sub = _ratio(Delta, S)
    frame = E._frame((Delta, sub), E.period)
    dtype = frame.starts.dtype
    origins = frame.w0 + np.arange(nb, dtype=dtype) * frame.length(Delta)
    lo = origins[:, None] + np.arange(S, dtype=dtype) * frame.length(sub)
    m = frame.cumulative(lo + frame.length(sub)) - frame.cumulative(lo)
    good = m > frame.floor(_ratio(gamma, 2) * sub)
    bound = good_fraction_bound(gamma) * S
    counts = good.sum(axis=1)
    # an integer count lies below bound - tol exactly when it lies below its ceiling
    short = np.flatnonzero(counts < math.ceil(bound - _tol(bound)))
    if short.size:
        k = int(short[0])
        raise NumericalError(
            f"certified good-count bound failed on block {k}: {counts[k]} < {bound}"
        )
    cells = np.arange(S)
    return PartitionReport(
        Delta, L, gamma,
        tuple(tuple(cells[row].tolist()) for row in good),
        tuple(tuple(cells[~row].tolist()) for row in good),
        bound,
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
    if _is_exact(w0, w1, delta, fill):
        return _exact_comb(w0, w1, delta, fill, nb)
    pieces = tuple(
        (w0 + k * delta, w0 + k * delta + fill) for k in range(nb)
    )
    return ThickSet(pieces, (w0, w1), True)


def _exact_comb(w0, w1, delta, fill, nb: int) -> ThickSet:
    """The comb of the nb blocks [w0 + k delta, w0 + k delta + fill] of exact
    ends, as ThickSet would normalize it, without a Fraction operation per
    block.  A full comb (fill = delta) merges into one interval.  Otherwise
    the blocks are disjoint, and the comb is stored as its exact table: the
    ends as integers over one denominator, the lcm of those of w0, delta and
    fill, which is the scale ``ThickSet._exact_table`` finds (both ends of
    block 0 and the start of block 1 are ends of the set).  Its measure is
    stored too, and its intervals are made on first read (see
    ``ThickSet.__getattr__``), each end the number ``w0 + k * delta
    (+ fill)`` gives, of its type."""
    a0 = w0 + 0 * delta  # block 0, of the types of every block
    b0 = a0 + fill
    if fill == delta:
        return ThickSet(((a0, w0 + (nb - 1) * delta + fill),), (w0, w1), True)
    ends = (w0, delta, fill)
    scale = math.lcm(*(Fraction(t).denominator for t in ends))
    w0s, step, width = ((Fraction(t) * scale).numerator for t in ends)
    dtype = np.int64 if (w1 - w0) * scale < _INT64_REACH else object
    starts = np.arange(nb, dtype=np.int64).astype(dtype) * step
    E = ThickSet.__new__(ThickSet)
    object.__setattr__(E, "window", (w0, w1))
    object.__setattr__(E, "periodic", True)
    E.__dict__.update(measure=(b0 - a0) * nb,
                      _exact_table=(scale, *_table(starts, starts + width, dtype)),
                      _comb_ends=(w0s, type(a0), type(b0)))
    return E
