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

from .errors import LimitError, NumericalError

__all__ = [
    "Sequence",
    "LacunarityReport",
    "TailSchedule",
    "check_hadamard",
    "zygmund_constant",
    "strong_zygmund_profile",
    "build_greedy",
    "GREEDY_MAX_COUNT",
    "GREEDY_MAX_TABLE_BITS",
    "build_counterexample",
    "greedy_growth_table",
    "growth_bound",
    "difference_set",
]

# Resource guard for build_counterexample: 4**K at this K is ~10 kB per term,
# far past any truncation this toolkit certifies.
_COUNTEREXAMPLE_MAX_K = 10_000
# Resource guards of the greedy construction, fixed from its cost on a
# 2-vCPU x86-64 machine.  At the constant schedule L = 1, 1500 terms (the
# last 86411423, needing 1.7e8 bits of centers) take about 2.2 s and 90 MB
# peak RSS; 2000 terms took 8 s and 200 MB.  2**28 bits of centers (32 MiB,
# terms up to about 1.3e8) bound the tables of wider schedules, which grow
# faster: a run refused there stops within about 1.5 s and 150 MB.
GREEDY_MAX_COUNT = 1500
GREEDY_MAX_TABLE_BITS = 2**28


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
    maximum collision count N for the difference tests.  ``witness`` holds
    the zero-based ordered index pairs attaining the constant, one per row
    in row-major (k, l) order: a read-only int64 array of shape (m, 2),
    empty (0, 2) where nothing attains it.  Any (m, 2) array-like is
    accepted and stored that way.  ``to_dict`` writes the rows as lists of
    Python integers, and ``==`` compares witnesses row by row, order
    included.
    """

    kind: str  # "hadamard" | "zygmund" | "strong_zygmund"
    parameter: float
    constant: float
    witness: np.ndarray = ()
    passes: bool | None = None

    def __post_init__(self):
        w = np.asarray(self.witness, dtype=np.int64).reshape(-1, 2)
        if w.flags.writeable:
            w = w.copy()  # never a view of an array the caller may change
            w.flags.writeable = False
        object.__setattr__(self, "witness", w)

    def __eq__(self, other):
        if not isinstance(other, LacunarityReport):
            return NotImplemented
        return (
            (self.kind, self.parameter, self.constant, self.passes)
            == (other.kind, other.parameter, other.constant, other.passes)
            and np.array_equal(self.witness, other.witness)
        )

    def to_dict(self) -> dict:
        c = self.constant
        return {
            "kind": self.kind,
            "parameter": self.parameter,
            "constant": c if (isinstance(c, int) or math.isfinite(c)) else "inf",
            "witness": self.witness.tolist(),
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
    if not 1 < q < math.inf:
        raise ValueError(f"ratio threshold q must be finite and exceed 1, got {q!r}")
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
    """The threshold that the counts of ``seq`` are taken at: floor(L) as an
    int on an integer sequence, whose differences lie within L of each other
    iff they lie within floor(L), and L otherwise.  So integer differences
    stay exact: a float L would make each search bound d +- L a float,
    which for d past 2**53 may leave out d itself ((0, 2**70 + 1, 2**71 + 3)
    at L = 1.5 read constant 0 that way)."""
    return math.floor(L) if seq.integer_valued else L


def _exact_values(vals, L=0) -> np.ndarray:
    """The values as an array whose differences, and those moved by L, are
    exact: int64 for integer values when max - min + L < 2**62, the values
    moved by the first so that no difference d or d +- L can overflow;
    otherwise an object array of Python numbers, subtracted and compared
    exactly as Python does."""
    if (isinstance(L, int) and all(isinstance(x, int) for x in vals)
            and max(vals) - min(vals) + L < 2**62):
        return np.array([x - vals[0] for x in vals], dtype=np.int64)
    return np.array(vals, dtype=object)


def _differences(seq: Sequence, L=0) -> np.ndarray:
    """Flat array of v[k] - v[l] over k != l, in row-major (k, l) order, of
    the exact values of ``_exact_values``."""
    v = _exact_values(seq.values, L)
    return (v[:, None] - v[None, :])[~np.eye(v.size, dtype=bool)]


def zygmund_constant(
    seq: Sequence, L=1, *, kind: str = "zygmund", index_offset: int = 0
) -> LacunarityReport:
    """Max collision count of ordered difference pairs at threshold L.

    For each ordered pair (k, l) with k != l, counts the ordered pairs
    (k', l'), k' != l', whose difference lies within L of the (k, l)
    difference.  The pair itself is included, so the constant is >= 1 on any
    sequence with two or more terms.  Enumeration is exhaustive over the
    truncation, yet it runs over the n(n - 1)/2 positive differences
    p = v[l] - v[k], k < l, alone: the values increase strictly, and the
    count c(d) of a difference d equals c(-d), so for d > 0 it is

        #{p : |p - d| <= L} + #{p : p <= L - d},

    the second term counting the negated differences -p within L of d,
    and nonzero only when d < L.  The positive differences are sorted once,
    and the sorted table serves as its own needles, since a count depends
    only on the value.  An entry whose two neighbours in the table both lie
    more than L away counts only itself in the first term; every other
    entry takes two binary searches, and each d < L one more.  On a greedy
    list every entry is such a loner (all 79 800 of ``build_greedy(400)``
    at L = 1).  The pairs whose difference takes an attaining value, (k, l)
    and (l, k) alike, form the witness in row-major order; when every entry
    attains the constant, as on every greedy list, that is every (k, l),
    k != l, written directly.  Both took ``build_greedy(400)`` at L = 1
    from 6.0 to 2.2 ms on a 2-vCPU Xeon.  Integer values stay exact, in
    int64 where the range allows and as Python integers in an object array
    otherwise, and an integer sequence is counted at the integer floor(L)
    (``_collision_threshold``).
    """
    if L < 1:
        raise ValueError("collision threshold L must be >= 1")
    n = len(seq)
    if n < 2:
        return LacunarityReport(kind, float(L), 0)
    parameter, L = float(L), _collision_threshold(seq, L)
    v = _exact_values(seq.values, L)
    upper = np.triu(np.ones((n, n), dtype=bool), 1)
    p = (v[None, :] - v[:, None])[upper]  # v[l] - v[k] for k < l, row-major
    table = np.sort(p)
    # an entry whose neighbours in the table both lie more than L away, by
    # the comparisons the binary searches make, counts only itself
    crowded = np.zeros(table.size, dtype=bool)
    crowded[:-1] = table[1:] <= table[:-1] + L
    crowded[1:] |= table[:-1] >= table[1:] - L
    c = np.ones(table.size, dtype=np.intp)
    needles = table[crowded]
    c[crowded] = (np.searchsorted(table, needles + L, side="right")
                  - np.searchsorted(table, needles - L))
    near = np.searchsorted(table, L)  # the differences below L
    c[:near] += np.searchsorted(table, L - table[:near], side="right")
    best = int(c.max())
    attained = c == best
    if attained.all():  # as on every greedy list, whose constant is 1: every (k, l), k != l
        witness = np.empty((n, n - 1, 2), dtype=np.int64)
        witness[..., 0] = np.arange(n)[:, None]
        witness[..., 1] = np.arange(n - 1)
        witness[..., 1] += witness[..., 1] >= witness[..., 0]  # the diagonal l == k is skipped
        witness = witness.reshape(-1, 2)
    else:  # membership of each difference among the attaining values
        hit = np.zeros((n, n), dtype=bool)
        values = table[attained]
        at = np.minimum(np.searchsorted(values, p), values.size - 1)
        hit[upper] = values[at] == p
        hit |= hit.T
        pairs = np.flatnonzero(hit)
        witness = np.empty((pairs.size, 2), dtype=np.int64)
        np.divmod(pairs, n, out=(witness[:, 0], witness[:, 1]))
    witness += index_offset
    witness.flags.writeable = False  # frozen here, the report keeps it uncopied
    return LacunarityReport(kind, parameter, best, witness)


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


_WORD = np.dtype("<u8")  # little-endian: the bytes of a run of words hold its bits in order
_BIT = np.left_shift(np.ones(64, dtype=_WORD), np.arange(64, dtype=_WORD))  # bit b of a word


def _next_free(centers: np.ndarray, start: int, L: int, span: int) -> int | None:
    """Smallest v >= start with no center in [v - L, v + L].

    ``centers`` is a bitset of little-endian uint64 words, slot v being
    bit v % 64 of word v // 64.  Slots below 0 or past the table's end hold
    no center.  Only the scanned window is read, as one Python int whose
    bit i is slot lo + i; it reaches at least ``span`` slots above ``start``
    and doubles until it contains a free slot, and any starting length
    gives the same answer.  None if the window would pass
    GREEDY_MAX_TABLE_BITS / 8 slots.
    """
    gap = 2 * L + 1
    lo = start - L
    span = max(span, 64 * gap)
    # a window up to `end` holds a free slot: v = max(start, table end + L)
    end = max(start, 64 * centers.size + L) + L + 1
    while True:
        hi = min(start + span + L, end)
        if hi - lo > GREEDY_MAX_TABLE_BITS // 8:
            return None
        w0 = max(lo, 0) >> 6
        occ = int.from_bytes(centers[w0:-(-hi // 64)].tobytes(), "little")
        occ = occ << -lo if lo < 0 else occ >> (lo - 64 * w0)
        # OR over runs of `gap` slots by doubling: bit i then covers the
        # slots lo + i .. lo + i + 2L, the neighbourhood of v = lo + i + L;
        # from bit hi - lo - 2L on it would reach slots past the window
        k = 1
        while 2 * k <= gap:
            occ |= occ >> k
            k *= 2
        if k < gap:
            occ |= occ >> (gap - k)
        free = ~occ & ((1 << (hi - lo - 2 * L)) - 1)
        if free:
            return lo + (free & -free).bit_length() - 1 + L
        span *= 2


def _grown(table: np.ndarray, size: int) -> np.ndarray:
    grown = np.zeros(size, dtype=_WORD)
    grown[:table.size] = table
    return grown


def _greedy_steps(count: int, schedule: TailSchedule):
    """Yield (n, value, threshold, bound) rows of the greedy construction.

    Each new term is the smallest positive integer x avoiding every value
    a + b - c + p over previously chosen a, b, c and |p| <= L, where L is the
    schedule threshold for the current length.

    Two bitsets of uint64 words hold the state.  ``diffs`` has bit d set for
    every difference d = a - b >= 0 of chosen terms, d = 0 included.
    ``centers`` has bit v set for every center a + b - c >= x_n once the
    n-th term x_n is chosen.  That is exact.  Every integer up to x_n is
    already forbidden, because x_n was the smallest free slot and thresholds
    never decrease.  A center below x_n forbids nothing above x_n that the
    center x_n = x_n + x_n - x_n does not, at this and any wider threshold.
    The centers at or above x_n that x_n adds are x_n + a - b with a >= b,
    all below 2 x_n; those of the form a + b - x_n lie below it.  So once
    the differences x_n - a are set in ``diffs``, ``diffs`` shifted left by
    x_n bits is ORed into ``centers``: about x_n / 64 contiguous words per
    term.  The threshold enters only when the next term is searched from
    x_n + 1, so a schedule that widens L needs no re-marking.

    The tables grow by doubling, ``centers`` to at least 2 x_n bits and
    ``diffs`` to half as many, so memory follows the largest term: about
    2 x_n / 8 bytes of centers plus x_n / 8 of differences.  A count above
    GREEDY_MAX_COUNT is refused before the first term; a run whose centers
    would need more than GREEDY_MAX_TABLE_BITS, or whose free-slot search
    would read more than GREEDY_MAX_TABLE_BITS / 8 slots, is refused
    before that growth or search.  Each term is still checked against the
    cubic bound as it is produced.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    if count > GREEDY_MAX_COUNT:
        raise LimitError("count", f"{count} is above {GREEDY_MAX_COUNT}, the most terms a "
                         "greedy run may have")
    yield (1, 1, None, 1)
    terms = np.empty(count, dtype=np.int64)
    d = np.empty(count, dtype=np.int64)
    diffs = centers = np.zeros(0, dtype=_WORD)
    x = 1
    for n in range(1, count):
        # mark the centers the latest term x = x_n adds, then search x_{n+1}
        terms[n - 1] = x
        words = (x >> 6) + 1  # the words of diffs that hold a bit
        if centers.size < 2 * words:
            if 128 * words > GREEDY_MAX_TABLE_BITS:
                raise LimitError("count", (
                    f"{count} needs a greedy table of more than {GREEDY_MAX_TABLE_BITS} "
                    f"bits with this schedule: term {n} is {x}"))
            size = min(max(2 * centers.size, 2 * words), GREEDY_MAX_TABLE_BITS // 64)
            centers, diffs = _grown(centers, size), _grown(diffs, size // 2)
        new = np.subtract(x, terms[:n], out=d[:n])  # x - a, x - x = 0 included
        np.bitwise_or.at(diffs, new >> 6, _BIT[new & 63])  # words may repeat
        q, r = x >> 6, x & 63
        centers[q:q + words] |= diffs[:words] << r
        if r:  # the bits shifted out of each word go to the next one
            centers[q + 1:q + words + 1] |= diffs[:words] >> (64 - r)

        L = schedule.threshold_for(n)
        # greedy gaps grow with n: a window as long as the last gap rarely
        # needs doubling
        x = _next_free(centers, x + 1, L, int(x - terms[n - 2]) if n > 1 else 0)
        if x is None:
            raise LimitError("count", (
                f"{count} needs a greedy search window of more than "
                f"{GREEDY_MAX_TABLE_BITS // 8} slots with this schedule: term {n + 1} "
                f"at threshold {L}"))
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
    per-step certificates).  Memory grows with the largest term x_n (two
    bitsets, about 3 x_n / 8 bytes), not with that bound.  A count above
    GREEDY_MAX_COUNT, or a run whose table would pass GREEDY_MAX_TABLE_BITS,
    is refused with a LimitError naming ``count``.
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
