"""Checkable ingredients of the uniqueness argument for lacunary spectra.

Covers the gap condition on the frequency sequence, the Lipschitz bump
weight built over the frequencies, its closed-form diagnostics, and the
Carleman-Denjoy moment sequence of the weight W(xi) = e^{xi / log(e + xi)}.
Only the verifiable hypotheses are computed; the nonconstructive multiplier
existence they feed into is out of scope.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericalError
from .sequences import Sequence

__all__ = [
    "BumpFunction",
    "smoothstep_bump",
    "SeparationReport",
    "separation_condition",
    "omega_weight",
    "OmegaDiagnostics",
    "omega_diagnostics",
    "QuasiAnalyticityReport",
    "carleman_denjoy_partial",
    "log_weight",
]

_E = math.e
_SCAN_POINTS = 65  # per unit interval of the domination scan
# The most moments carleman_denjoy_partial computes: 10**5 take about 0.35 s
# on one core (one bisection of all n at once), and a larger N is refused
# before the first.
MAX_MOMENT_ORDER = 10**5


def log_weight(xi: float) -> float:
    """log W(xi) = xi / log(e + xi) for xi >= 0."""
    return xi / math.log(_E + xi)


def _log_weight_slope(xi: np.ndarray) -> np.ndarray:
    """d/dxi log W(xi) at each xi of an array."""
    lg = np.log(_E + xi)
    return (lg - xi / (_E + xi)) / (lg * lg)


@dataclass(frozen=True)
class BumpFunction:
    """Piecewise-polynomial bump: pieces of (lo, hi, coeffs highest-first).

    Must be continuously differentiable, valued in [0, 1], and vanish
    outside the union of the pieces.
    """

    pieces: tuple

    def __post_init__(self):
        pieces = tuple(
            (float(lo), float(hi), tuple(float(c) for c in coeffs))
            for lo, hi, coeffs in self.pieces
        )
        object.__setattr__(self, "pieces", pieces)
        for (l0, h0, c0), (l1, h1, c1) in zip(pieces, pieces[1:]):
            if h0 != l1:
                raise ValueError("pieces must abut")
            v0 = np.polyval(c0, h0)
            v1 = np.polyval(c1, l1)
            d0 = np.polyval(np.polyder(np.array(c0)), h0) if len(c0) > 1 else 0.0
            d1 = np.polyval(np.polyder(np.array(c1)), l1) if len(c1) > 1 else 0.0
            if abs(v0 - v1) > 1e-12 or abs(d0 - d1) > 1e-12:
                raise ValueError("pieces must join C^1")
        probe = self(np.linspace(self.support[0], self.support[1], 1001))
        if probe.min() < -1e-12 or probe.max() > 1 + 1e-12:
            raise ValueError("bump values must lie in [0, 1]")

    @property
    def support(self) -> tuple:
        return self.pieces[0][0], self.pieces[-1][1]

    def __call__(self, x):
        scalar = np.isscalar(x) or np.ndim(x) == 0
        arr = np.atleast_1d(np.asarray(x, dtype=float))
        out = np.zeros(arr.shape)
        for lo, hi, coeffs in self.pieces:
            mask = (arr >= lo) & (arr <= hi)
            if mask.any():
                out[mask] = np.polyval(coeffs, arr[mask])
        return float(out[0]) if scalar else out

    def derivative_sup(self, lo=None, hi=None) -> float:
        """Exact sup of |phi'| over [lo, hi] from the polynomial pieces."""
        s0, s1 = self.support
        lo = s0 if lo is None else max(lo, s0)
        hi = s1 if hi is None else min(hi, s1)
        if hi <= lo:
            return 0.0
        best = 0.0
        for p_lo, p_hi, coeffs in self.pieces:
            a, b = max(lo, p_lo), min(hi, p_hi)
            if b < a:
                continue
            der = np.polyder(np.array(coeffs))
            candidates = [a, b]
            if len(der) > 1:
                for r in np.roots(np.polyder(der)):
                    if abs(r.imag) < 1e-12 and a <= r.real <= b:
                        candidates.append(float(r.real))
            best = max(best, max(abs(float(np.polyval(der, t))) for t in candidates))
        return best


def smoothstep_bump() -> BumpFunction:
    """C^1 cubic bump: 1 on [-1/2, 1/2], smoothstep down to 0 at +-1.

    Its derivative peaks at 3 (midway down each shoulder).
    """
    return BumpFunction(
        (
            (-1.0, -0.5, (-16.0, -36.0, -24.0, -4.0)),
            (-0.5, 0.5, (1.0,)),
            (0.5, 1.0, (16.0, -36.0, 24.0, -4.0)),
        )
    )


@dataclass(frozen=True)
class SeparationReport:
    """Per-gap outcome of the frequency separation condition."""

    holds: tuple  # one bool per consecutive pair
    partial_sum: float  # sum over the checked prefix of 1 / log^2 lambda_n
    first_failure: int | None  # one-based pair index, None when all hold

    @property
    def all_hold(self) -> bool:
        return self.first_failure is None

    def to_dict(self) -> dict:
        return {
            "holds": list(self.holds),
            "partial_sum": self.partial_sum,
            "first_failure": self.first_failure,
        }


def separation_condition(seq: Sequence, N: int) -> SeparationReport:
    """Check lambda_n (1 + 1/log lambda_n) < lambda_{n+1} (1 - 1/log lambda_{n+1})
    for the first N terms, with natural logarithms.

    Requires every checked term to exceed e (so both factors are positive)
    and reports the partial sum of 1 / log^2 lambda_n alongside.
    """
    if N < 1:
        raise ValueError("N must be >= 1")
    if len(seq) < N:
        raise ValueError(f"sequence holds {len(seq)} terms, {N} requested")
    vals = seq.values[:N]
    for i, v in enumerate(vals):
        if v <= _E:
            raise ValueError(f"term {i + 1} = {v} must exceed e")
    logs = [math.log(v) for v in vals]
    holds = []
    first_failure = None
    for n in range(N - 1):
        ok = vals[n] * (1 + 1 / logs[n]) < vals[n + 1] * (1 - 1 / logs[n + 1])
        holds.append(ok)
        if not ok and first_failure is None:
            first_failure = n + 1
    partial = sum(1.0 / lg**2 for lg in logs)
    return SeparationReport(tuple(holds), partial, first_failure)


def _bump_supports(seq: Sequence):
    lams, radii = [], []
    for i, v in enumerate(seq.values):
        if v <= _E:
            raise ValueError(f"term {i + 1} = {v} must exceed e")
        lam = float(v)
        lams.append(lam)
        radii.append(lam / math.log(lam))
    for i in range(len(lams) - 1):
        if lams[i] + radii[i] > lams[i + 1] - radii[i + 1]:
            raise ValueError(
                f"bump supports of terms {i + 1} and {i + 2} overlap; "
                "the separation condition fails on this prefix"
            )
    return np.array(lams), np.array(radii)


def omega_weight(x, seq: Sequence, phi: BumpFunction):
    """Bump-sum weight: sum_n (lambda_n / log lambda_n) *
    phi((log lambda_n / lambda_n) (x - lambda_n)).

    The supports are pairwise disjoint (enforced), so at most one summand is
    active at any point; evaluation locates it by bisection on the
    frequencies and checks the two neighbours.
    """
    lams, _ = _bump_supports(seq)
    scalar = np.isscalar(x) or np.ndim(x) == 0
    arr = np.atleast_1d(np.asarray(x, dtype=float))
    out = np.zeros(arr.shape)
    if lams.size:
        idx = np.searchsorted(lams, arr)
        for cand in (idx - 1, idx):
            c = np.clip(cand, 0, lams.size - 1)
            lam = lams[c]
            scaled = (arr - lam) * np.log(lam) / lam
            hit = np.abs(scaled) <= 1.0
            if hit.any():
                out[hit] = (lam[hit] / np.log(lam[hit])) * phi(scaled[hit])
    return float(out[0]) if scalar else out


def _affine_compose(coeffs, alpha, beta):
    """Coefficients (highest-first) of p(alpha*x + beta)."""
    out = np.zeros(1)
    for c in coeffs:
        out = np.polymul(out, [alpha, beta])
        out[-1] += c
    return out


def _poly_over_x2_integral(coeffs, lo, hi) -> float:
    """Exact integral of p(x)/x^2 over [lo, hi] with 0 < lo <= hi."""

    def anti(x):
        total = 0.0
        deg = len(coeffs) - 1
        for i, c in enumerate(coeffs):
            k = deg - i
            if k == 0:
                total -= c / x
            elif k == 1:
                total += c * math.log(x)
            else:
                total += c * x ** (k - 1) / (k - 1)
        return total

    return anti(hi) - anti(lo)


@dataclass(frozen=True)
class OmegaDiagnostics:
    """Closed-form diagnostics of the bump-sum weight on [1, T]."""

    lipschitz_bound: float  # exact sup of |omega'| over [1, T]
    tail_integral: float  # exact integral of omega(x)/x^2 over [1, T]
    domination_constant: float  # max of x/log(e+x) - omega(x) on the scan set

    def to_dict(self) -> dict:
        """JSON-ready: a non-finite domination constant is written "inf" or "-inf"."""
        dom = self.domination_constant
        return {
            "lipschitz_bound": self.lipschitz_bound,
            "tail_integral": self.tail_integral,
            "domination_constant": dom if math.isfinite(dom) else str(dom),
        }


def omega_diagnostics(seq: Sequence, phi: BumpFunction, T: float) -> OmegaDiagnostics:
    """Lipschitz constant, weighted tail integral, and domination constant.

    The chain rule cancels the per-bump scaling, so omega' is phi' in the
    local variable and the Lipschitz constant is a piecewise-exact max.  The
    tail integral is a closed form piece by piece (polynomial over x^2).
    The domination constant is scanned over the unit spectral intervals
    [lambda_n, lambda_n + 1] clipped to [0, T] (-inf when none meets it);
    with no frequencies at all, it is the sup of the increasing x/log(e+x)
    over [0, T], T/log(e+T), and inf at T = inf.
    """
    if not T > 1:
        raise ValueError("T must exceed 1")
    if len(seq) == 0:
        return OmegaDiagnostics(0.0, 0.0, log_weight(T) if T < math.inf else math.inf)
    lams, radii = _bump_supports(seq)
    lip = 0.0
    tail = 0.0
    for lam, r in zip(lams, radii):
        lo, hi = max(1.0, lam - r), min(T, lam + r)
        if hi <= lo:
            continue
        s = math.log(lam) / lam
        lip = max(lip, phi.derivative_sup(s * (lo - lam), s * (hi - lam)))
        amp = lam / math.log(lam)
        for p_lo, p_hi, coeffs in phi.pieces:
            a = max(lo, lam + p_lo / s)
            b = min(hi, lam + p_hi / s)
            if b <= a:
                continue
            q = amp * _affine_compose(coeffs, s, -s * lam)
            tail += _poly_over_x2_integral(q, a, b)
    samples = []
    for lam in lams:
        a, b = max(0.0, lam), min(T, lam + 1.0)
        if b >= a:
            samples.append(np.linspace(a, b, _SCAN_POINTS))
    if samples:
        xs = np.concatenate(samples)
        dom = float(np.max(xs / np.log(_E + xs) - omega_weight(xs, seq, phi)))
    else:
        dom = -math.inf
    return OmegaDiagnostics(lip, tail, dom)


@dataclass(frozen=True)
class QuasiAnalyticityReport:
    """Moment sequence of the quasi-analyticity weight and its partial sums.

    M_n = sup_{xi >= 1} xi^n / W(xi) grows past float range quickly, so the
    exact log values are primary and M_values holds their (possibly inf)
    exponentials.  mu_n = M_{n-1} / M_n; the divergence of sum mu_n is the
    quasi-analyticity criterion, tracked here through its partial sums and
    the integral proxy of log W(t) / t^2.
    """

    log_M: tuple  # n = 0 .. N
    M_values: tuple
    mu_values: tuple  # n = 1 .. N
    partial_sums: tuple
    integral_proxy: tuple  # (T, integral of log W / t^2 over [1, T]) pairs

    def to_dict(self) -> dict:
        return {
            "count": len(self.mu_values),
            "log_M_last": self.log_M[-1],
            "partial_sum_last": self.partial_sums[-1] if self.partial_sums else 0.0,
            "integral_proxy": [list(p) for p in self.integral_proxy],
        }


def _moment_argmaxes(N: int) -> np.ndarray:
    """Maximizers of n*log(xi) - log W(xi) over xi >= 1 for n = 0 .. N, by
    slope bisection of all n at once.

    The slope n/xi - (log W)'(xi) decreases; where it is positive at 1, the
    bracket [1, 2] doubles until the slope at its right end is not positive,
    then it is halved until hi - lo <= 1e-10 hi, and the maximizer is the
    midpoint.  Each n is frozen once its bracket is that narrow, so it
    takes the midpoints that a bisection of that n alone takes; elsewhere
    the maximizer is 1.  A bracket that passes 1e300 is a NumericalError.
    """
    n = np.arange(N + 1.0)

    def rising(xi):
        return n / xi - _log_weight_slope(xi) > 0

    lo, hi = np.ones(N + 1), np.full(N + 1, 2.0)
    inside = (n > 0) & rising(lo)
    grow = inside & rising(hi)
    while grow.any():
        lo, hi = np.where(grow, hi, lo), np.where(grow, 2 * hi, hi)
        if (hi > 1e300).any():
            k = int(np.argmax(hi > 1e300))
            raise NumericalError(
                f"moment maximizer bracket diverged at n = {k}: [{lo[k]}, {hi[k]}]"
            )
        grow &= rising(hi)
    active = inside & (hi - lo > 1e-10 * hi)
    while active.any():
        mid = 0.5 * (lo + hi)
        up = rising(mid)
        lo, hi = np.where(active & up, mid, lo), np.where(active & ~up, mid, hi)
        active &= hi - lo > 1e-10 * hi
    return np.where(inside, 0.5 * (lo + hi), 1.0)


def quad(edges):
    """Integrals of 1 / log(e + e^u) over each piece [edges[i], edges[i + 1]]
    of the array ``edges``, by the 20-point Gauss-Legendre rule and by the
    10-point rule as a check.

    With u = log t this is the proxy integrand log W(t) / t^2 dt.  It is
    analytic in the strip |Im u| < pi (the nearest singularities sit at
    log(e - 1) +- i pi and 1 +- i pi), so on pieces no longer than log 10
    both rules converge geometrically and agree to rounding (Trefethen,
    SIAM Review 50, 2008); np.logaddexp keeps every node finite.
    """
    mid, half = (edges[1:] + edges[:-1]) / 2, (edges[1:] - edges[:-1]) / 2

    def rule(n):
        nodes, weights = np.polynomial.legendre.leggauss(n)
        u = mid[:, None] + half[:, None] * nodes
        return half * (weights / np.logaddexp(1.0, u)).sum(axis=1)

    return rule(20), rule(10)


def carleman_denjoy_partial(N: int, T_max: float) -> QuasiAnalyticityReport:
    """Moment sequence, ratio partial sums, and the integral proxy.

    Each M_n comes from a one-dimensional maximization of the concave-in-log
    objective n*log(xi) - xi/log(e+xi): the maximizers of all n by one
    slope bisection run on all of them at once (``_moment_argmaxes``), each
    objective in Python floats.  A maximizer at which the objective rises
    at xi (1 +- 1e-6) is a NumericalError, and the monotonicity and
    log-convexity of the moments are verified on the computed range.  The
    proxy integrals run from 1 to the powers of ten below T_max and to
    T_max, as running sums of one ``quad`` piece per decade in u = log t
    (the integral grows only like log log t); a piece on which the two
    Gauss-Legendre rules of ``quad`` differ by more than 1e-12 relative is
    a NumericalError.  N is at most MAX_MOMENT_ORDER.
    """
    if N < 1:
        raise ValueError("N must be >= 1")
    if N > MAX_MOMENT_ORDER:
        raise ValueError(f"N = {N} is above {MAX_MOMENT_ORDER}, the most moments computed")
    if not 1 < T_max < math.inf:
        raise ValueError("T_max must be finite and exceed 1")
    xi = _moment_argmaxes(N)
    log_M = [n * math.log(x) - log_weight(x) for n, x in enumerate(xi.tolist())]
    obj, n = np.array(log_M), np.arange(N + 1)
    rises = np.zeros(N + 1, dtype=bool)
    for probe in (xi * (1 + 1e-6), xi / (1 + 1e-6)):
        alt = n * np.log(probe) - probe / np.log(_E + probe)
        rises |= (probe >= 1.0) & (alt > obj + 1e-9 * np.maximum(1.0, np.abs(obj)))
    if rises.any():
        k = int(np.argmax(rises))
        raise NumericalError(f"moment maximization failed at n = {k}: "
                             f"objective rises off the bracket point {xi[k]}")
    falls = np.flatnonzero(obj[1:] < obj[:-1] - 1e-9)
    if falls.size:
        raise NumericalError(f"moment sequence not increasing at n = {falls[0] + 1}")
    bends = np.flatnonzero(2 * obj[1:-1] > obj[:-2] + obj[2:] + 1e-9)
    if bends.size:
        raise NumericalError(f"moment sequence not log-convex at n = {bends[0] + 1}")
    mu = [math.exp(log_M[n - 1] - log_M[n]) for n in range(1, N + 1)]
    partial = list(np.cumsum(mu))
    m_vals = []
    for lm in log_M:
        try:
            m_vals.append(math.exp(lm))
        except OverflowError:
            m_vals.append(math.inf)
    # exact powers of ten, compared as floats: float(10**309) overflows
    ts = [t for t in (float(10**k) for k in range(1, 309)) if t < T_max] + [float(T_max)]
    ends = [1.0] + ts
    pieces, check = quad(np.log(ends))
    gap = np.abs(pieces - check)  # a piece is empty where log t rounds alike at both ends
    bad = np.flatnonzero(gap > 1e-12 * pieces)
    if bad.size:
        i = bad[0]
        raise NumericalError(f"T_max {T_max}: the proxy integral over [{ends[i]}, "
                             f"{ends[i + 1]}] is unreliable: the 20- and 10-point "
                             f"Gauss-Legendre rules differ by {gap[i] / pieces[i]:.1e} relative")
    proxy = tuple(zip(ts, np.cumsum(pieces).tolist()))
    return QuasiAnalyticityReport(
        tuple(log_M), tuple(m_vals), tuple(mu), tuple(partial), proxy
    )
