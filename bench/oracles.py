"""Correctness oracles: each checks a lacspec result against mathematics.

Every oracle is an invariant of the quantity or an independent exact
recomputation written here, never a value recorded from an earlier lacspec
run.  An oracle raises OracleError naming the violated property.  The
tolerances are fixed here, before any measurement, from float64 rounding on
matrices of dimension below a few hundred.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
from bisect import bisect_right
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

import numpy as np

EIG_TOL = 1e-9  # eigenvalue identities and bounds
RATIO_TOL = 1e-9  # norm-ratio identities
REL_TOL = 1e-9  # values re-derived from other columns of the same table
PROXY_REL_TOL = 1e-7  # scipy quad against the Gauss-Legendre rule below


class OracleError(AssertionError):
    """A result violates the property an oracle checks."""


def require(ok: bool, message: str) -> None:
    if not ok:
        raise OracleError(message)


def close(a: float, b: float, rel: float, abs_tol: float = 0.0) -> bool:
    return math.isclose(a, b, rel_tol=rel, abs_tol=abs_tol)


# --- concentration -----------------------------------------------------------


def check_identity(lam: float, what: str) -> None:
    """A full-window compression of on-grid or integer frequencies is the
    identity, so its smallest eigenvalue is exactly 1."""
    require(abs(lam - 1.0) <= EIG_TOL, f"{what}: lambda_min {lam!r} != 1 on the full set")


def check_trace_bound(lam: float, constant, density: float, what: str) -> None:
    """0 <= lambda_min <= trace / dim = set density, and C = 1 / lambda_min."""
    require(-EIG_TOL <= lam <= density + EIG_TOL,
            f"{what}: lambda_min {lam!r} outside [0, density {density!r}]")
    if lam > 1e-13:
        require(close(float(constant), 1.0 / lam, 1e-12),
                f"{what}: constant_C {constant!r} != 1 / lambda_min")


def check_monotone(lams, what: str) -> None:
    """Nested sets give ordered compressions, so lambda_min is non-decreasing."""
    for a, b in zip(lams, lams[1:]):
        require(a <= b + EIG_TOL, f"{what}: lambda_min decreases on a larger set ({a!r} > {b!r})")


# --- sets --------------------------------------------------------------------


class MeasureFunction:
    """Cumulative measure x -> |E intersect (-inf, x]|, periodized if needed.

    Independent of lacspec's window scan: prefix sums and bisection, exact for
    int and Fraction endpoints.
    """

    def __init__(self, intervals, window, periodic):
        self.starts = [a for a, _ in intervals]
        self.ends = [b for _, b in intervals]
        self.prefix = [0]
        for a, b in intervals:
            self.prefix.append(self.prefix[-1] + (b - a))
        self.w0 = window[0]
        self.period = window[1] - window[0]
        self.periodic = periodic

    def _base(self, x):
        i = bisect_right(self.starts, x)
        if i == 0:
            return 0
        return self.prefix[i - 1] + min(x, self.ends[i - 1]) - self.starts[i - 1]

    def __call__(self, x):
        if not self.periodic:
            return self._base(x)
        k = math.floor((x - self.w0) / self.period)
        return k * self.prefix[-1] + self._base(x - k * self.period)

    def between(self, lo, hi):
        return self(hi) - self(lo)


def exact_thickness(intervals, window, periodic, Delta):
    """Infimum over length-Delta windows of the relative measure.

    The window measure is piecewise linear in the window start, with breaks
    where either window edge meets an interval edge, so its minimum is over
    that finite set (plus the ends of the admissible range).
    """
    M = MeasureFunction(intervals, window, periodic)
    w0, w1 = window
    starts = {w0} if periodic else {w0, w1 - Delta}
    for a, b in intervals:
        for t in (a, b, a - Delta, b - Delta):
            if periodic or w0 <= t <= w1 - Delta:
                starts.add(t)
    return min(M.between(t, t + Delta) for t in starts) / Delta


def check_thickness(value, intervals, window, periodic, Delta, what: str) -> None:
    expected = exact_thickness(intervals, window, periodic, Delta)
    require(value == expected, f"{what}: thickness {value!r} != exact {expected!r}")


def check_partition(report, intervals, window, periodic, Delta, L, gamma, what: str) -> None:
    """Good count >= certified bound on every block, and each length-1/L cell
    is good exactly when E fills more than gamma/2 of it."""
    S = L * Delta
    bound = (Fraction(gamma) / 2) / (1 - Fraction(gamma) / 2) * S
    require(report.lower_bound == bound,
            f"{what}: certified bound {report.lower_bound!r} != {bound!r}")
    M = MeasureFunction(intervals, window, periodic)
    span = window[1] - window[0]
    blocks = span // Delta if not periodic else span / Delta
    require(len(report.good_indices) == blocks,
            f"{what}: {len(report.good_indices)} blocks reported, {blocks} expected")
    sub = Fraction(Delta) / S
    threshold = Fraction(gamma) / 2 * sub
    for k, (good, bad) in enumerate(zip(report.good_indices, report.bad_indices)):
        require(len(good) >= bound, f"{what}: block {k} has {len(good)} good cells < bound {bound}")
        origin = window[0] + k * Delta
        expected = tuple(j for j in range(S)
                         if M.between(origin + j * sub, origin + (j + 1) * sub) > threshold)
        require(tuple(good) == expected, f"{what}: block {k} good cells {good} != {expected}")
        require(sorted(good + bad) == list(range(S)), f"{what}: block {k} cells not a partition")


# --- sequences ---------------------------------------------------------------


def schedule_threshold(breakpoints, n: int) -> int:
    """Largest tabulated L whose tail start M(L) is at most n."""
    return max(L for L, M in breakpoints if M <= n)


def check_greedy(terms, thresholds, what: str) -> None:
    """Greedy avoidance certificate, re-derived from the definition.

    Term n+1 must be the least positive integer x with |x - (a + b - c)| > L
    over earlier terms a, b, c (so x avoids them and x - 1 does not), and must
    stay within the cubic bound (2L + 1) n^3 + 1.
    """
    require(len(terms) >= 1 and terms[0] == 1, f"{what}: sequence must start at 1")
    sums = {2}
    chosen = [1]
    for idx in range(1, len(terms)):
        x, L = terms[idx], thresholds[idx]
        n = len(chosen)
        require(x > chosen[-1], f"{what}: term {idx + 1} = {x} not increasing")
        require(x <= (2 * L + 1) * n**3 + 1, f"{what}: term {idx + 1} = {x} above the cubic bound")

        def forbidden(y):
            return not sums.isdisjoint({y + c + p for c in chosen for p in range(-L, L + 1)})

        require(not forbidden(x), f"{what}: term {idx + 1} = {x} is a + b - c within {L}")
        require(forbidden(x - 1), f"{what}: term {idx + 1} = {x} is not the least admissible value")
        chosen.append(x)
        sums.update(x + c for c in chosen)


def collision_count(values, L) -> int:
    """Max over ordered pairs of the number of pair differences within L,
    computed with sorted int64 arrays (values must fit in int64)."""
    v = np.array(values, dtype=np.int64)
    n = v.size
    if n < 2:
        return 0
    d = (v[:, None] - v[None, :])[~np.eye(n, dtype=bool)]
    s = np.sort(d)
    counts = np.searchsorted(s, d + L, side="right") - np.searchsorted(s, d - L, side="left")
    return int(counts.max())


def check_collisions(report, values, L, what: str) -> None:
    expected = collision_count(values, L)
    require(report.constant == expected,
            f"{what}: collision constant {report.constant!r} != exhaustive {expected}")


# --- uniqueness --------------------------------------------------------------


def _log_weight(xi: float) -> float:
    return xi / math.log(math.e + xi)


def log_moment(n: int) -> float:
    """max over xi >= 1 of n log xi - log W(xi), by golden section in u = log xi
    (the objective is concave in u)."""
    f = lambda u: n * u - _log_weight(math.exp(u))
    hi = 1.0
    while f(hi) >= f(hi / 2):
        hi *= 2
    lo, g = 0.0, (math.sqrt(5) - 1) / 2
    a, b = hi - g * (hi - lo), lo + g * (hi - lo)
    fa, fb = f(a), f(b)
    for _ in range(200):
        if fa < fb:
            lo, a, fa = a, b, fb
            b = lo + g * (hi - lo)
            fb = f(b)
        else:
            hi, b, fb = b, a, fa
            a = hi - g * (hi - lo)
            fa = f(a)
        if hi - lo < 1e-13:
            break
    return max(f(0.0), fa, fb)


def proxy_integral(T: float) -> float:
    """Integral of log W(t) / t^2 over [1, T]; with u = log t it is the smooth
    integral of 1 / log(e + e^u) over [0, log T], done by 64-panel
    20-point Gauss-Legendre."""
    nodes, weights = np.polynomial.legendre.leggauss(20)
    edges = np.linspace(0.0, math.log(T), 65)
    mid, half = (edges[1:] + edges[:-1]) / 2, (edges[1:] - edges[:-1]) / 2
    u = (mid[:, None] + half[:, None] * nodes[None, :]).ravel()
    w = (half[:, None] * weights[None, :]).ravel()
    return float(np.sum(w / np.log(math.e + np.exp(u))))


# --- experiment runs ----------------------------------------------------------


@dataclass
class RunView:
    """A finished `lacspec run`: manifest checksums and the bytes on disk."""

    outputs: dict  # file name -> sha256 hex from the manifest
    files: dict  # file name -> bytes read back
    manifest_file: dict = field(default_factory=dict)

    @classmethod
    def read(cls, manifest, outdir: Path) -> "RunView":
        files = {name: (outdir / name).read_bytes() for name in manifest.outputs}
        disk = json.loads((outdir / "manifest.json").read_text(encoding="utf-8"))
        return cls(dict(manifest.outputs), files, disk)

    def table(self, name: str) -> list[dict]:
        """Rows of a CSV output, keyed by column name without its unit label."""
        reader = csv.reader(io.StringIO(self.files[name].decode("utf-8")))
        header = [h.split(" [", 1)[0] for h in next(reader)]
        return [{k: _number(v) for k, v in zip(header, row)} for row in reader]

    def with_table(self, name: str, rows: list[dict]) -> "RunView":
        """Copy with one CSV rewritten and its checksum updated to match."""
        header = self.files[name].decode("utf-8").splitlines()[0]
        buf = io.StringIO()
        buf.write(header + "\r\n")
        w = csv.writer(buf)
        for row in rows:
            w.writerow([repr(v) if isinstance(v, float) else v for v in row.values()])
        data = buf.getvalue().encode("utf-8")
        files = dict(self.files, **{name: data})
        outputs = dict(self.outputs, **{name: hashlib.sha256(data).hexdigest()})
        return RunView(outputs, files, dict(self.manifest_file, outputs=outputs))


def _number(text: str):
    if text == "":
        return None
    try:
        return int(text)
    except ValueError:
        return float(text)


def check_checksums(view: RunView, expected_files, what: str) -> None:
    """The manifest names exactly the expected files, its checksums match the
    bytes written, and the manifest on disk agrees with the returned one."""
    require(set(view.outputs) == set(expected_files),
            f"{what}: manifest lists {sorted(view.outputs)}, expected {sorted(expected_files)}")
    for name, digest in view.outputs.items():
        actual = hashlib.sha256(view.files[name]).hexdigest()
        require(actual == digest, f"{what}: checksum of {name} does not match the file")
    require(view.manifest_file.get("outputs") == view.outputs,
            f"{what}: manifest.json on disk disagrees with the returned manifest")
