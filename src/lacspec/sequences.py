"""Lacunary frequency sequences: representation, certification, constructions.

A sequence here is always a finite, strictly increasing truncation.  The
certification routines count difference collisions exhaustively over the
truncation, so every reported constant can be reproduced bit-for-bit by
re-running them on the same values.  Integer sequences stay exact: their
differences are int64 arrays where the range allows, and Python integers in
object arrays otherwise, so the collision counts are exact even for terms
far beyond the 64-bit range (e.g. 4**64).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Iterator

import numpy as np

from .errors import NumericalError

__all__ = [
    "Sequence",
    "LacunarityReport",
    "TailSchedule",
    "check_hadamard",
    "zygmund_constant",
    "strong_zygmund_profile",
    "build_greedy",
    "build_counterexample",
    "greedy_growth_table",
    "growth_bound",
    "difference_set",
]

# Resource guard for build_counterexample: 4**K at this K is ~10 kB per term,
# far past any truncation this toolkit certifies.
_COUNTEREXAMPLE_MAX_K = 10_000


@dataclass(frozen=True)
class Sequence:
    """Strictly increasing finite list of real frequencies.

    ``integer_valued`` is detected from the values; integer sequences keep
    exact arithmetic through every certification routine.
    """

    values: tuple
    integer_valued: bool = field(init=False, default=False)

    def __post_init__(self):
        vals = tuple(int(v) if isinstance(v, np.integer) else v for v in self.values)
        for i, v in enumerate(vals):
            if isinstance(v, (bool, np.bool_)):
                raise ValueError(f"boolean value at index {i}")
            if isinstance(v, float) and not math.isfinite(v):
                raise ValueError(f"non-finite value at index {i}")
        for i in range(len(vals) - 1):
            if not vals[i] < vals[i + 1]:
                raise ValueError(
                    f"values must be strictly increasing, violated at index {i}"
                )
        object.__setattr__(self, "values", vals)
        object.__setattr__(
            self, "integer_valued", all(isinstance(v, int) for v in vals)
        )

    def __len__(self) -> int:
        return len(self.values)

    def __iter__(self) -> Iterator:
        return iter(self.values)

    def __getitem__(self, idx):
        if isinstance(idx, slice):
            return Sequence(self.values[idx])
        return self.values[idx]

    @property
    def positive(self) -> bool:
        return all(v > 0 for v in self.values)

    def tail(self, start: int) -> "Sequence":
        """Subsequence from one-based index ``start`` onward."""
        if start < 1:
            raise ValueError("tail start is one-based and must be >= 1")
        return Sequence(self.values[start - 1:])

    def to_text(self) -> str:
        """One decimal value per line."""
        return "".join(
            (f"{v}\n" if isinstance(v, int) else f"{float(v)!r}\n")
            for v in self.values
        )

    @classmethod
    def from_text(cls, text: str) -> "Sequence":
        vals = []
        for line in text.splitlines():
            line = line.strip()
            if not line:
                continue
            try:
                vals.append(int(line))
            except ValueError:
                vals.append(float(line))
        return cls(tuple(vals))


@dataclass(frozen=True)
class LacunarityReport:
    """Outcome of one exhaustive lacunarity certification.

    ``constant`` is the minimum consecutive ratio for the ratio test and the
    maximum collision count N for the difference tests.  ``witness`` lists the
    zero-based ordered index pairs attaining the constant.
    """

    kind: str  # "hadamard" | "zygmund" | "strong_zygmund"
    parameter: float
    constant: float
    witness: tuple = ()
    passes: bool | None = None

    def to_dict(self) -> dict:
        c = self.constant
        return {
            "kind": self.kind,
            "parameter": self.parameter,
            "constant": c if (isinstance(c, int) or math.isfinite(c)) else "inf",
            "witness": [list(w) for w in self.witness],
            "passes": self.passes,
        }


@dataclass(frozen=True)
class TailSchedule:
    """Non-decreasing step map L -> M(L) given by breakpoints.

    ``breakpoints`` is a tuple of (L, M) pairs with the L values strictly
    increasing from 1 and the M values non-decreasing.  The map is the step
    function equal to the last breakpoint at or below L; beyond the largest
    breakpoint it stays constant.  ``threshold_for(n)`` inverts the map for
    the greedy construction: the largest tabulated L whose tail start M(L)
    has already been passed.
    """

    breakpoints: tuple = ((1, 1),)

    def __post_init__(self):
        bps = tuple((int(L), int(M)) for L, M in self.breakpoints)
        if not bps:
            raise ValueError("schedule needs at least one breakpoint")
        if bps[0][0] != 1:
            raise ValueError("schedule must start at L = 1")
        for (l0, m0), (l1, m1) in zip(bps, bps[1:]):
            if l1 <= l0:
                raise ValueError("breakpoint L values must be strictly increasing")
            if m1 < m0:
                raise ValueError("schedule must be non-decreasing in L")
        if any(m < 1 for _, m in bps):
            raise ValueError("tail starts M(L) must be >= 1")
        object.__setattr__(self, "breakpoints", bps)

    @classmethod
    def constant(cls, M: int = 1) -> "TailSchedule":
        return cls(((1, M),))

    def value(self, L: int) -> int:
        """M(L) for integer L >= 1."""
        if L < 1:
            raise ValueError("threshold L must be >= 1")
        m = self.breakpoints[0][1]
        for bl, bm in self.breakpoints:
            if bl > L:
                break
            m = bm
        return m

    def threshold_for(self, n: int) -> int:
        """Largest tabulated L with M(L) <= n."""
        best = None
        for bl, bm in self.breakpoints:
            if bm <= n:
                best = bl
        if best is None:
            raise ValueError(
                f"schedule has no threshold for a {n}-term prefix (M(1) > {n})"
            )
        return best

    def to_dict(self) -> dict:
        return {"breakpoints": [list(bp) for bp in self.breakpoints]}


def check_hadamard(seq: Sequence, q: float) -> LacunarityReport:
    """Ratio test: min of consecutive ratios against the threshold q > 1.

    Fewer than two elements is degenerate: the constant is +inf and the test
    passes vacuously.
    """
    if q <= 1:
        raise ValueError("ratio threshold q must exceed 1")
    if any(v <= 0 for v in seq.values):
        raise ValueError("ratio test requires positive entries")
    if len(seq) < 2:
        return LacunarityReport("hadamard", q, math.inf, (), True)
    ratios = [seq.values[i + 1] / seq.values[i] for i in range(len(seq) - 1)]
    best = min(ratios)
    witness = tuple(
        (i, i + 1) for i, r in enumerate(ratios) if r == best
    )
    return LacunarityReport("hadamard", q, best, witness, best >= q)


def _collision_threshold(seq: Sequence, L):
    # Keep big-integer arithmetic exact: an integral threshold on an integer
    # sequence must not force float conversion of the differences.
    if seq.integer_valued and float(L) == int(L):
        return int(L)
    return L


def _differences(seq: Sequence, L=0) -> np.ndarray:
    """Flat array of v[k] - v[l] over k != l, in row-major (k, l) order.

    The dtype keeps every comparison exact: int64 for integer values when
    max - min + L < 2**62, the values moved by the first so that each lies in
    [0, 2**62) and d +- L cannot overflow; otherwise an object array of
    Python numbers, compared exactly as Python compares them.
    """
    vals = seq.values
    if seq.integer_valued and isinstance(L, int) and vals[-1] - vals[0] + L < 2**62:
        v = np.array([x - vals[0] for x in vals], dtype=np.int64)
    else:
        v = np.array(vals, dtype=object)
    return (v[:, None] - v[None, :])[~np.eye(v.size, dtype=bool)]


def zygmund_constant(
    seq: Sequence, L=1, *, kind: str = "zygmund", index_offset: int = 0
) -> LacunarityReport:
    """Max collision count of ordered difference pairs at threshold L.

    For each ordered pair (k, l) with k != l, counts the ordered pairs
    (k', l'), k' != l', whose difference lies within L of the (k, l)
    difference.  The pair itself is included, so the constant is >= 1 on any
    sequence with two or more terms.  Enumeration is exhaustive over the
    truncation: the differences are sorted once and each count is two
    binary searches.  Integer values stay exact, in int64 where the range
    allows and as Python integers in an object array otherwise.
    """
    if L < 1:
        raise ValueError("collision threshold L must be >= 1")
    n = len(seq)
    if n < 2:
        return LacunarityReport(kind, L, 0, ())
    L = _collision_threshold(seq, L)
    d = _differences(seq, L)
    table = np.sort(d)
    c = np.searchsorted(table, d + L, side="right") - np.searchsorted(table, d - L)
    best = int(c.max())
    k, l = np.divmod(np.flatnonzero(c == best), n - 1)
    l += l >= k  # the diagonal k == l is skipped
    witness = zip((k + index_offset).tolist(), (l + index_offset).tolist())
    return LacunarityReport(kind, float(L), best, tuple(witness))


def strong_zygmund_profile(
    seq: Sequence, schedule: TailSchedule, L_values: Iterable[int]
) -> list[LacunarityReport]:
    """Collision counts of the scheduled tails at each threshold L.

    For each L the tail (one-based indices >= M(L)) is certified at threshold
    L.  The truncation is (M, N)-strong on the tested thresholds iff all
    reported constants stay at or below N.  Witness indices refer to the full
    sequence.
    """
    reports = []
    for L in L_values:
        M = schedule.value(L)
        if M > len(seq) - 1:
            raise ValueError(
                f"tail start M({L}) = {M} leaves fewer than two of the "
                f"{len(seq)} truncated terms"
            )
        rep = zygmund_constant(
            seq.tail(M), L, kind="strong_zygmund", index_offset=M - 1
        )
        reports.append(rep)
    return reports


def growth_bound(n: int, L: int) -> int:
    """Pigeonhole bound on the next greedy term after n terms at threshold L."""
    return (2 * L + 1) * n**3 + 1


def _next_free(centers: np.ndarray, start: int, L: int) -> int:
    """Smallest v >= start with no marked center in [v - L, v + L].

    Positions past the end of ``centers`` hold no center.  The window scanned
    above ``start`` doubles until it contains a free slot.
    """
    gap = 2 * L + 1  # consecutive centers further apart than this leave a slot
    lo = max(start - L, 0)
    span = 64 * gap
    while True:
        hi = start + span + L
        found = np.flatnonzero(centers[lo:hi]) + lo
        # a virtual center just below the window makes `start` the first
        # candidate; one at the window's end confines candidates to it
        end = hi if hi < centers.size else hi + gap
        edges = np.concatenate(([start - L - 1], found, [end]))
        free = np.flatnonzero(np.diff(edges) > gap)
        if free.size:
            return int(edges[free[0]]) + L + 1
        span *= 2


def _greedy_steps(count: int, schedule: TailSchedule):
    """Yield (n, value, threshold, bound) rows of the greedy construction.

    Each new term is the smallest positive integer x avoiding every value
    a + b - c + p over previously chosen a, b, c and |p| <= L, where L is the
    schedule threshold for the current length.

    Table invariant: after the n-th term x_n, a boolean table of at least
    2 x_n entries marks every center a + b - c >= x_n.  That is exact.  Every
    integer up to x_n is already forbidden, because x_n was the smallest free
    slot and thresholds never decrease.  A center below x_n forbids nothing
    above x_n that the center x_n = x_n + x_n - x_n does not, at this and any
    wider threshold.  The centers at or above x_n that x_n adds are
    x_n + a - b with a >= b, all below 2 x_n; those of the form a + b - x_n
    lie below it.  The threshold enters only when the next term is searched
    from x_n + 1, so a schedule that widens L needs no re-marking.  The table
    grows by doubling, so memory follows the largest term and there is no
    ceiling on the run length; each term is still checked against the cubic
    bound as it is produced.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    yield (1, 1, None, 1)
    terms = np.empty(count, dtype=np.int64)
    diffs = np.empty(count * (count - 1) // 2, dtype=np.int64)  # a - b, a > b
    centers = np.zeros(0, dtype=bool)
    x = 1
    for n in range(1, count):
        # mark the centers the latest term x = x_n adds, then search x_{n+1}
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
        x = _next_free(centers, x + 1, L)
        bound = growth_bound(n, L)
        if x > bound:
            raise NumericalError(
                f"greedy term {x} exceeds its certified bound {bound} at step {n}"
            )
        yield (n + 1, x, L, bound)


def build_greedy(count: int, schedule: TailSchedule | None = None) -> Sequence:
    """Greedy avoidance construction of a polynomially growing sequence.

    Starts at 1; every subsequent term is the smallest positive integer
    avoiding all sums a + b - c + p of earlier terms with |p| <= L, L taken
    from the schedule.  Each term is checked against the pigeonhole bound
    (2L + 1) n^3 + 1 as it is produced (see ``greedy_growth_table`` for the
    per-step certificates).  Memory grows with the largest term (a boolean
    table of two to four times its value), not with that bound, and the run
    length has no ceiling.
    """
    if schedule is None:
        schedule = TailSchedule.constant(1)
    return Sequence(tuple(row[1] for row in _greedy_steps(count, schedule)))


def greedy_growth_table(
    count: int, schedule: TailSchedule | None = None
) -> list[tuple]:
    """Per-step (n, value, threshold, bound) certificates of the greedy run."""
    if schedule is None:
        schedule = TailSchedule.constant(1)
    return list(_greedy_steps(count, schedule))


def build_counterexample(K: int) -> Sequence:
    """The paired power sequence {4**k + j*k : 1 <= k <= K, j in {0, 1}}.

    Kept in exact integer arithmetic; terms reach 4**K, so K is capped well
    past certification scale rather than silently overflowing a fixed width.
    """
    if K < 1:
        raise ValueError("K must be >= 1")
    if K > _COUNTEREXAMPLE_MAX_K:
        raise OverflowError(f"K = {K} exceeds the supported range")
    vals = []
    for k in range(1, K + 1):
        base = 4**k
        vals.append(base)
        vals.append(base + k)
    return Sequence(tuple(sorted(vals)))


def difference_set(seq: Sequence) -> list:
    """Sorted list of the distinct nonzero pairwise differences.

    Of differences that compare equal (1 and 1.0), the first in (k, l)
    order is kept.
    """
    if len(seq) < 2:
        return []
    d = _differences(seq)
    return d[np.unique(d, return_index=True)[1]].tolist()
