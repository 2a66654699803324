"""Concentration operators: Gram matrices, extremal eigenvalues, inequality probes.

The central device is the compression of multiplication by the indicator of
a set E to a finite span of exponentials.  Its entries are Gram integrals
over E, computed exactly in one of two forms (never by sampled quadrature,
which is kept only as a cross-check oracle in the tests): a closed form per
interval and distinct frequency difference, or, for lists whose differences
are mostly distinct (lacunary and greedy ones), one product of the table of
exact phases at the interval ends with its adjoint (see ``_gram_entries``).
So eigenvalues are limited by linear-algebra conditioning alone.  The
smallest eigenvalue is the best concentration constant on the truncated
model space, and 1/lambda_min the constant of the norm inequality it
certifies.
"""

from __future__ import annotations

import itertools
import math
import sys
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import NumericalError
from .sequences import Sequence, TailSchedule, _exact_values
from .sets import Comb, ThickSet
from .synthesis import LEAKAGE_TOL, BandFunction, Grid, synthesize

__all__ = [
    "HermitianForm",
    "ConcentrationEstimate",
    "LemmaTerms",
    "SplitCheck",
    "interval_phase_integral",
    "gram_matrix",
    "nazarov_constant",
    "ls_constant",
    "hermitian_eigensystem",
    "lemma_main_report",
    "theorem_split_check",
]

HERMITIAN_TOL = 1e-12
EIG_RESIDUAL_TOL = 1e-10
DEGENERACY_FLOOR = 1e-13
MAX_DENSE_DIM = 2000
_BLOCK_ENTRIES = 2**16  # entries of one block of the closed form (``_closed_form``)
_LANCZOS_SHARE = 4  # a Lanczos budget of n // 4 steps (``_least_value``)
_LANCZOS_MIN = 24  # the least budget worth a run
_LANCZOS_STRIDE = 4  # steps between two convergence checks (``_lanczos_pair``)


def _phase_integrals(width, center, d: np.ndarray) -> np.ndarray:
    """Closed form of the integral of e^{2 pi i d x} over [a, b], for each d,
    given width = b - a and center = a + b (floats, or a column of them
    against a row d: one row per interval).

    Written as e^{i pi d (a+b)} * sin(pi d (b-a)) / (pi d) with both phases
    range-reduced, so the result is exactly zero wherever d*(b-a) is an
    integer (full-period oscillations), which keeps full-window compressions
    exactly diagonal.  Where d*(b-a) is zero or subnormal, the sine has lost
    its digits and the d -> 0 limit b - a is returned instead.
    """
    dw = d * width
    k = np.round(dw)
    s = np.sin(np.pi * (dw - k)) * (1 - 2 * (k % 2))
    phase = d * center
    phase -= 2 * np.round(phase / 2)
    with np.errstate(invalid="ignore"):
        z = np.exp(1j * np.pi * phase) * (s / (np.pi * d))
    return np.where(np.abs(dw) < np.finfo(float).tiny, width, z)


def interval_phase_integral(a, b, d) -> complex:
    """Integral of e^{2 pi i d x} over [a, b]: the scalar view of the closed
    form, which the Gram kernel evaluates for lists of few distinct
    differences and for pairs of frequencies less than 1 apart (see
    ``_gram_entries``; its other pairs take (e(d b) - e(d a)) / (2 pi i d),
    e(t) = e^{2 pi i t}, from exact end phases)."""
    return complex(_phase_integrals(float(b - a), float(a + b), np.array([float(d)]))[0])


@dataclass(frozen=True, eq=False)
class HermitianForm:
    """Dense Hermitian matrix with a provenance record.

    Hermitian symmetry is validated to HERMITIAN_TOL entrywise on
    construction; builders assemble one triangle and mirror it, so the check
    guards against assembly bugs rather than rounding.
    """

    dimension: int
    entries: np.ndarray
    provenance: dict

    def __post_init__(self):
        if self.dimension < 1:
            raise ValueError(f"dimension {self.dimension} holds no entries: a form needs "
                             f"dimension >= 1")
        m = np.asarray(self.entries, dtype=complex)
        if m.shape != (self.dimension, self.dimension):
            raise ValueError("entries must be a square matrix of the declared size")
        _require_hermitian(m)
        m = m.copy()
        m.setflags(write=False)
        object.__setattr__(self, "entries", m)

    def to_text(self, path) -> None:
        """Dimension header then row-major 're im' pairs, one per line."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(f"{self.dimension}\n")
            for row in self.entries:
                for z in row:
                    fh.write(f"{float(z.real)!r} {float(z.imag)!r}\n")

    @classmethod
    def from_text(cls, path, provenance=None) -> "HermitianForm":
        with open(path, "r", encoding="utf-8") as fh:
            d = int(fh.readline())
            flat = []
            for line in fh:
                if line.strip():
                    re, im = line.split()
                    flat.append(complex(float(re), float(im)))
        m = np.array(flat, dtype=complex).reshape(d, d)
        return cls(d, m, provenance or {"kind": "file"})


@dataclass(frozen=True)
class ConcentrationEstimate:
    """Extremal eigenvalue of a concentration form and its constant.

    ``degenerate`` marks a smallest eigenvalue below the floor where the
    reciprocal would be numerically meaningless; the constant is then inf
    rather than a huge finite number.
    """

    lambda_min: float
    constant_C: float
    residual: float
    discretization: dict
    degenerate: bool = False

    def to_dict(self) -> dict:
        return {
            "lambda_min": self.lambda_min,
            "constant_C": self.constant_C if math.isfinite(self.constant_C) else "inf",
            "residual": self.residual,
            "degenerate": self.degenerate,
            "discretization": self.discretization,
        }


def _require_hermitian(m: np.ndarray) -> None:
    """Hermitian symmetry of a matrix, or of each of a stack, to HERMITIAN_TOL
    entrywise."""
    if np.max(np.abs(m - m.conj().swapaxes(-1, -2))) > HERMITIAN_TOL:
        raise ValueError("matrix is not Hermitian within tolerance")


def _require_residual(residual: float, scale: float) -> None:
    """The residual contract: ||G v - lambda v|| <= EIG_RESIDUAL_TOL ||G||,
    which a NaN residual fails.  Below ||G|| = tiny / EIG_RESIDUAL_TOL, about
    2.2e-298 (tiny the smallest normal float), the bound is subnormal or
    zero and the contract holds vacuously; that is harmless, since there
    lambda_min <= ||G|| < DEGENERACY_FLOOR and every estimate is degenerate."""
    if scale > 0 and not residual <= EIG_RESIDUAL_TOL * scale:
        raise NumericalError(
            f"eigensolver residual {residual:.3e} exceeds "
            f"{EIG_RESIDUAL_TOL} * ||G|| = {EIG_RESIDUAL_TOL * scale:.3e}"
        )


def _residual(Gv: np.ndarray, v: np.ndarray, lam: float, scale: float) -> float:
    """||G v - lam v||, given the product G v, of a real or complex form of
    spectral norm ``scale`` = m 2^e, 1/2 <= m < 1, taken of the vector times
    2^-e and scaled back, for e > 0: exactly the norm, yet no square
    overflows (||G|| past 1e154 read inf)."""
    e = max(math.frexp(scale)[1], 0)
    r = Gv - lam * v
    return math.ldexp(float(np.linalg.norm(np.ldexp(r.view(float), -e).view(r.dtype))), e)


def _require_dense(dimension: int) -> None:
    """The dense solver cap, tested before a form is assembled or solved."""
    if dimension > MAX_DENSE_DIM:
        raise ValueError(f"dimension {dimension} exceeds the dense solver cap {MAX_DENSE_DIM}")


def hermitian_eigensystem(form: HermitianForm):
    """Eigenvalues of a dense Hermitian form and its least eigenpair, with a
    residual contract.

    Returns (eigenvalues ascending, a unit eigenvector v of the least
    eigenvalue lambda_0, residual ||G v - lambda_0 v||).  The eigenvalues
    come from ``eigvalsh``, which skips the eigenbasis that ``eigh`` builds
    (about half of its time at n = 200).  v comes from inverse iteration:
    solves of (G - sigma I) x = b from a fixed start vector b, with sigma =
    lambda_0 - eps ||G||.  A solve scales each eigencomponent of b by
    1 / (lambda_k - sigma), so it shrinks the others against the least one
    by |lambda_0 - sigma| / (lambda_k - sigma), and leaves a residual of
    about |lambda_0 - sigma| times their weight in b over the least one's.
    One solve is not enough: on a 200-term greedy Gram it left 110 eps ||G||
    (``eigh`` 2 eps ||G||), and from a start vector nearly orthogonal to v
    it can break the contract (from the all-ones vector, the arithmetic
    progression 0..79 over [0, 1/8] was left at 2.6e-8 ||G||).  A second
    solve took both to rounding size (3 eps ||G||, 1.6e-15 ||G||), so it is
    taken unless the first already left at most eps ||G||, as on the
    identity.  The shift is at least the smallest normal float, so that a
    zero or subnormal ||G|| still gives a nonsingular system, and it is
    doubled while G - sigma I is singular in floating point.  Each iterate
    is scaled by its largest entry before it is normalized, so its norm
    cannot overflow.  Raises NumericalError when the residual exceeds
    EIG_RESIDUAL_TOL times the spectral norm.
    """
    _require_dense(form.dimension)
    return _least_eigenpair(form.entries)


def _least_eigenpair(G: np.ndarray):
    """``hermitian_eigensystem`` of a complex Hermitian or a real symmetric
    matrix G: a real G is solved in real arithmetic from the real part of
    the start vector."""
    n = G.shape[0]
    vals = np.linalg.eigvalsh(G)
    lam, scale = float(vals[0]), float(max(-vals[0], vals[-1]))
    eps = np.finfo(float).eps
    shift = max(eps * scale, np.finfo(float).tiny)
    v = _start_vector(G)
    while True:
        shifted = G.copy()
        shifted.flat[::n + 1] -= lam - shift
        try:
            x = np.linalg.solve(shifted, v)
            break
        except np.linalg.LinAlgError:  # lam - shift is an eigenvalue to working precision
            shift *= 2
    for step in range(2):
        if step:
            x = np.linalg.solve(shifted, v)
        x /= np.max(np.abs(x))
        v = x / np.linalg.norm(x)
        residual = _residual(G @ v, v, lam, scale)
        if residual <= eps * scale:
            break
    _require_residual(residual, scale)
    return vals, v, residual


def _start_vector(G: np.ndarray) -> np.ndarray:
    """A fixed start vector with no symmetry that a Toeplitz or circulant
    form's eigenvectors share: the fractional parts of k sqrt(2), and of
    k sqrt(3) as the imaginary part for a complex G."""
    k = np.arange(1, G.shape[0] + 1)
    if np.iscomplexobj(G):
        return (k * math.sqrt(2)) % 1 - 0.5 + 1j * ((k * math.sqrt(3)) % 1 - 0.5)
    return (k * math.sqrt(2)) % 1 - 0.5


def _least_value(G: np.ndarray) -> tuple:
    """(lambda_0, residual) of a complex Hermitian or real symmetric G: the
    certified Lanczos pair (``_lanczos_pair``) where it is found, else
    ``_least_eigenpair``'s eigenvalue and residual, bit for bit."""
    budget = G.shape[0] // _LANCZOS_SHARE
    found = _lanczos_pair(G, budget) if budget >= _LANCZOS_MIN else None
    if found is None:
        vals, _, residual = _least_eigenpair(G)
        found = float(vals[0]), residual
    return found


def _lanczos_pair(G: np.ndarray, budget: int):
    """(lambda_0, residual) of G from at most ``budget`` Lanczos steps, or
    None when they do not give a certified pair.

    Lanczos with full reorthogonalization (B. N. Parlett, The Symmetric
    Eigenvalue Problem, SIAM 1998, ch. 13): from the unit start vector q_1
    (``_start_vector``), step j takes w = G q_j, orthogonalizes it against
    every q_i twice (classical Gram-Schmidt), reads alpha_j = q_j^H G q_j
    from the two projections and beta_j = ||w||, and sets q_{j+1} =
    w / beta_j.  Every _LANCZOS_STRIDE steps, at the budget and at a zero
    beta, the k x k tridiagonal T of the alphas and betas is solved by
    ``eigh``; its least Ritz value theta with eigenvector s has the residual
    bound beta_k |s_k|, and ||G|| is estimated from below by the largest
    |theta| of T.  The steps stop when the bound is at most 4 eps ||G||.
    From the third check on they also stop, and give None, when the fastest
    decay of the bound over _LANCZOS_STRIDE steps seen so far, held for the
    steps left, cannot take the least bound seen so far there.

    v is the unit Ritz vector Q s, lambda its Rayleigh quotient
    v^H G v / v^H v and the residual ||G v - lambda v|| (``_residual``).
    lambda is certified by a Cholesky factorization of
    G - (lambda - 4 n eps ||G||) I: it succeeds only when that matrix is
    positive definite to working precision, so lambda_0 lies within
    4 n eps ||G|| below lambda, and a Rayleigh quotient is never below
    lambda_0 but by rounding.  This is the first half of Rump's criterion
    (S. M. Rump, BIT 46, 2006); the second half, which bounds the rounding
    of the factorization itself, is not taken.  The certificate catches a
    Ritz value of the wrong eigenvalue, as from a start vector orthogonal
    to the least eigenvector.  None when the factorization fails, or when
    the residual misses the contract (``_require_residual``).
    """
    n = G.shape[0]
    eps = np.finfo(float).eps
    Q = np.empty((budget, n), dtype=G.dtype)
    b = _start_vector(G)
    Q[0] = b / np.linalg.norm(b)
    alpha, beta = np.zeros(budget), np.zeros(budget)
    best, previous, rate = math.inf, None, math.inf
    for j in range(budget):
        w = G @ Q[j]
        for _ in range(2):
            c = (Q[:j + 1] @ w.conj()).conj()  # q_i^H w, conjugating a vector, not Q
            w -= c @ Q[:j + 1]
            alpha[j] += c[j].real
        beta[j] = np.linalg.norm(w)
        k = j + 1
        if k % _LANCZOS_STRIDE == 0 or k == budget or beta[j] == 0:
            T = np.diag(alpha[:k])
            T[np.arange(1, k), np.arange(k - 1)] = beta[:k - 1]  # eigh reads the lower triangle
            theta, S = np.linalg.eigh(T)
            scale = float(max(-theta[0], theta[-1]))
            bound, tol = beta[j] * abs(S[-1, 0]), 4 * eps * scale
            if bound <= tol:
                break
            if previous is not None:
                rate = min(rate, bound / previous)
            best, previous = min(best, bound), bound
            if k == budget or (k >= 3 * _LANCZOS_STRIDE and
                               best * rate ** ((budget - k) / _LANCZOS_STRIDE) > tol):
                return None
        Q[k] = w / beta[j]
    v = S[:, 0] @ Q[:k]
    v /= np.linalg.norm(v)
    Gv = G @ v
    lam = float(np.vdot(v, Gv).real / np.vdot(v, v).real)
    residual = _residual(Gv, v, lam, scale)
    shifted = G.copy()
    shifted.flat[::n + 1] -= lam - 4 * n * eps * scale
    try:
        np.linalg.cholesky(shifted)
    except np.linalg.LinAlgError:
        return None
    if not residual <= EIG_RESIDUAL_TOL * scale:
        return None
    return lam, residual


def _set_intervals(E: ThickSet, grid: Grid | None = None) -> tuple:
    """The intervals of E once E passes the checks of its window.

    Without a grid E must lie inside the unit torus [0, 1], and its
    endpoints are returned as given (exact types stay exact).  With a grid
    E's window must be the grid window [0, T] (``_check_on_grid``), and the
    endpoints are returned as floats.  Either way E must have positive
    measure.
    """
    if grid is None:
        intervals = E.intervals  # sorted and disjoint: the first and last ends bound them
        if intervals and (intervals[0][0] < -1e-12 or intervals[-1][1] > 1 + 1e-12):
            raise ValueError("set must lie inside the unit torus [0, 1]")
        _require_measure(E)
        return intervals
    _check_on_grid(E, grid)
    return tuple((float(a), float(b)) for a, b in E.intervals)


def _check_on_grid(E: ThickSet, grid: Grid) -> None:
    """E's window is the grid window [0, T] and E has positive measure."""
    w0, w1 = float(E.window[0]), float(E.window[1])
    if abs(w0) > 1e-9 or abs(w1 - grid.period) > 1e-9 * max(1.0, grid.period):
        raise ValueError("set window must coincide with the grid window [0, T]")
    _require_measure(E)


def _require_measure(E: ThickSet) -> None:
    if E.measure <= 0:  # the refusal of a null set, by every form over E
        raise ValueError("set must have positive measure")


def _closed_form(d: np.ndarray, intervals, period) -> np.ndarray:
    """(1/period) times the sum over the intervals of the closed form
    (``_phase_integrals``) at each d, evaluated once per distinct d.

    One array pass per block of intervals: their widths float(b - a) and
    centres float(a + b), each of the exact ends, as a column against the
    row of the D distinct d.  The rows are summed in interval order from 0,
    so each entry has the bits of a sum over the intervals one by one.  A
    block holds max(_BLOCK_ENTRIES, D) entries at most."""
    distinct, inverse = np.unique(d, return_inverse=True)
    width = np.array([float(b - a) for a, b in intervals])[:, None]
    center = np.array([float(a + b) for a, b in intervals])[:, None]
    step = max(1, _BLOCK_ENTRIES // distinct.size)
    acc = np.zeros(distinct.size, dtype=complex)
    for lo in range(0, len(width), step):
        for row in _phase_integrals(width[lo:lo + step], center[lo:lo + step], distinct):
            acc += row
    # true division: numpy's complex / real multiplies by the reciprocal
    return (acc.view(float) / period).view(complex)[inverse]


def _ratio(x) -> tuple:
    """x as (numerator, denominator), a float at its exact binary value."""
    return (int(x), 1) if isinstance(x, np.integer) else x.as_integer_ratio()


def _end_numerators(freqs, intervals, period) -> np.ndarray:
    """The n x n matrix sum_x s_x e(f_n x / T) conj(e(f_m x / T)) over the 2J
    interval ends x, s_x = -1 at a left end and +1 at a right one, with
    e(t) = e^{2 pi i t} and T the period: P diag(s) P^H for the n x 2J table
    P of end phases, one BLAS product.

    Each phase t = f x / T is reduced mod 1 exactly before its one rounding
    to float: with f = F / q and x / T = X / r as integer ratios over one
    denominator each (a float at its binary value), t mod 1 is
    (F X mod qr) / qr, taken in [-1/2, 1/2], in int64 while every such
    product stays below 2**62 and in Python ints beyond.  P is built in
    blocks of at most n columns (n >= 2 here), so no block holds more
    entries than the result.
    """
    n = len(freqs)
    ratios = [_ratio(f) for f in freqs]
    q = math.lcm(*(d for _, d in ratios))
    t_num, t_den = _ratio(period)
    ends = tuple(itertools.chain.from_iterable(intervals))
    r = math.lcm(*{_ratio(x)[1] for x in ends})
    Q = q * r * t_num
    dtype = np.int64 if Q <= 2**62 else object
    F = np.array([p * (q // d) % Q for p, d in ratios], dtype=dtype)
    X = np.fromiter((p * (r // d) * t_den % Q for p, d in map(_ratio, ends)),
                    dtype=dtype, count=len(ends))
    if dtype is np.int64 and int(F.max()) * int(X.max()) >= 2**62:
        F, X = F.astype(object), X.astype(object)
    width = n - n % 2  # even, so that each block starts at a left end
    signs = np.tile([-1.0, 1.0], width // 2)
    num = np.zeros((n, n), dtype=complex)
    for lo in range(0, X.size, width):
        t = (np.multiply.outer(F, X[lo:lo + width]) % Q / Q).astype(float, copy=False)
        t -= np.round(t)  # exact: t in [-1/2, 1/2]
        P = np.exp(2j * np.pi * t)
        num += (P * signs[:P.shape[1]]) @ P.conj().T
    return num


def _endpoint_form(freqs, intervals, period, rows, cols, diffs) -> np.ndarray:
    """The Gram entries of the pairs (rows, cols), f_rows - f_cols = diffs,
    from the end phases (``_end_numerators``): for f_n != f_m,

        (1/T) int_E e((f_n - f_m) x / T) dx
            = sum_x s_x e(f_n x / T) conj(e(f_m x / T)) / (2 pi i (f_n - f_m)).

    The quotient cancels where |f_n - f_m| < 1, so such pairs of a list
    that is not integer take the closed form, and the diagonal is the sum of
    the float widths over T, as the closed form gives it."""
    entries = np.empty(diffs.size, dtype=complex)
    diagonal = rows == cols
    entries[diagonal] = sum(float(b - a) for a, b in intervals) / period
    close = np.abs(diffs) < 1
    near = close & ~diagonal
    if near.any():
        entries[near] = _closed_form(diffs[near] / period, intervals, period)
    far = ~close
    if far.any():
        z = _end_numerators(freqs, intervals, period)[rows[far], cols[far]]
        w = 2 * np.pi * diffs[far]
        entries.real[far] = z.imag / w  # z / (i w), in true divisions
        entries.imag[far] = -z.real / w
    return entries


def _gram_entries(freqs, intervals, period) -> np.ndarray:
    """Gram matrix of e^{2 pi i f x / period} over the intervals, over period.

    The differences f_n - f_m are exact until one conversion to float: in
    int64 for integer frequencies within 2**62 of each other, as Python
    numbers otherwise (``sequences._exact_values``).  A frequency or a
    difference past the float range is refused, naming the sequence.  Two
    forms give the entries of the upper triangle:

    - the closed form (``_closed_form``) runs once per distinct difference
      and interval, in one array pass per block of intervals;
    - the endpoint form (``_endpoint_form``) builds one n x 2J table of exact
      end phases and one rank-2J product, whatever the differences.

    The endpoint form is taken when more than half of the n(n+1)/2 pairs of
    the upper triangle have distinct differences, the closed form otherwise.
    The first holds for lacunary and greedy lists (19 901 distinct of 20 100
    pairs at n = 200), where the closed form would run once per pair; the
    second for one grid band (Toeplitz) or an arithmetic progression of
    n >= 3 terms, whose increasing list has n distinct differences, where
    those few closed forms suffice.  Medians timed on a 2-vCPU Xeon: a
    200-term greedy Gram over 6 intervals took 11.6 ms in the closed form
    and 1.6 ms in all, endpoint form included.  On arithmetic progressions
    over torus combs the endpoint form, forced, took 39 ms against the
    closed form's 22 ms at n = 1000 over 64 blocks, 18 against 18 ms at
    n = 400 over 256 blocks and 26 against 46 ms at n = 200 over 1024
    blocks: the rule counts differences, not intervals, and keeps the closed
    form on all three.  The two forms agree within about J units of
    rounding per entry, and on the full torus the end phases of integer
    frequencies are exactly 1, so the Gram matrix is exactly the identity
    however large the terms.
    """
    n = len(freqs)
    rows, cols = np.triu_indices(n)
    v = _exact_values(freqs)
    try:
        with np.errstate(over="ignore"):  # of float terms: refused below
            diffs = (v[rows] - v[cols]).astype(float)
        finite = math.isfinite(float(max(freqs, key=abs))) and np.isfinite(diffs).all()
    except OverflowError:
        finite = False
    if not finite:
        raise ValueError(f"sequence: a frequency or a difference of two is past the largest "
                         f"float {sys.float_info.max!r}")
    scaled = diffs / period
    # distinct values counted on a sort: np.unique without an inverse hashes
    # its input, which left 1-2 MB more of the heap resident at n = 200
    ordered = np.sort(scaled)
    if 2 * (1 + np.count_nonzero(ordered[1:] != ordered[:-1])) > scaled.size:
        entries = _endpoint_form(freqs, intervals, period, rows, cols, diffs)
    else:
        entries = _closed_form(scaled, intervals, period)
    m = np.zeros((n, n), dtype=complex)
    m[rows, cols] = entries
    m[cols, rows] = entries.conj()
    return m


def _torus_intervals(E: ThickSet, seq: Sequence) -> tuple:
    """E's intervals once the refusals of a torus Gram matrix pass, in this
    order: the dense solver cap, a set outside the torus or null, an empty
    sequence."""
    _require_dense(len(seq))
    intervals = _set_intervals(E)
    if len(seq) == 0:
        raise ValueError("need at least one frequency")
    return intervals


def gram_matrix(E: ThickSet, seq: Sequence) -> HermitianForm:
    """Gram matrix of the exponentials of a frequency list restricted to E.

    Entry (n, m) is the integral of e^{2 pi i (lambda_n - lambda_m) x} over
    E inside the unit torus, assembled in the closed or the endpoint form
    (see ``_gram_entries``).
    """
    intervals = _torus_intervals(E, seq)
    return HermitianForm(
        len(seq),
        _gram_entries(seq.values, intervals, 1),
        {
            "kind": "gram",
            "frequencies": [float(v) for v in seq.values],
            "set": _set_record(E, intervals),
        },
    )


def _set_record(E: ThickSet, intervals) -> dict:
    """A form's record of its set: window, measure and interval count, in
    place of a list per interval, which would outweigh the form."""
    return {
        "window": [float(E.window[0]), float(E.window[1])],
        "measure": float(E.measure),
        "interval_count": len(intervals),
        "periodic": E.periodic,
    }


def _estimate(lam: float, residual: float, discretization: dict) -> ConcentrationEstimate:
    """The estimate of a least eigenvalue lam of a compression: refused when
    negative beyond rounding, degenerate below DEGENERACY_FLOOR."""
    if lam < -1e-12:
        raise NumericalError(
            f"compression eigenvalue {lam} is negative beyond tolerance"
        )
    lam = max(lam, 0.0) + 0.0  # + 0.0 turns a -0.0 into +0.0
    degenerate = lam < DEGENERACY_FLOOR
    constant = math.inf if degenerate else 1.0 / lam
    return ConcentrationEstimate(lam, constant, residual, discretization, degenerate)


def nazarov_constant(E: ThickSet, seq: Sequence) -> ConcentrationEstimate:
    """Best constant of the torus concentration inequality for a finite
    frequency list: the smallest Gram eigenvalue and its reciprocal.

    On one interval E = [a, b] the Gram matrix is U K U^H, U the diagonal
    of the phases e^{2 pi i lambda_n (a + b)/2}, with K the Gram matrix of
    the centred interval [-h, h], h = (b - a)/2 of the exact ends: the real
    symmetric matrix of the entries sin(2 pi d h)/(pi d) of Slepian's
    discrete prolate problem (D. Slepian, Bell Syst. Tech. J. 57, 1978).
    So K has G's eigenvalues, and it is solved in real arithmetic.
    ``_gram_entries`` assembles K; its imaginary part is rounding only
    (zero in the closed form, below 1e-17 from the end phases of greedy
    prefixes), and one past HERMITIAN_TOL is refused.  On the full torus
    [0, 1] K is exactly the identity for integer frequencies, as G is.  The
    end phases at -h and h are exact to absolute rounding, as every end
    phase of the endpoint form is; so on an interval narrower than about
    1/n, lambda_min is exact to about n eps absolute rather than n eps
    ||G||, as G's is on such an interval away from 0.  That is far below
    DEGENERACY_FLOOR in practice: greedy lists of 500 to 1500 terms on
    [0, 1e-6], and of 500 terms on widths where lambda_min is 7e-15 and
    1e-11, read lambda_min within 2e-16 of G's.  A set of two or more
    intervals takes the complex Gram matrix of ``gram_matrix``.

    Either matrix goes to one least-eigenpair kernel (``_least_value``).
    Lacunary exponentials are nearly orthogonal, so lambda_min stands well
    apart from the rest of the spectrum, and a Krylov solve finds it in few
    steps: Lanczos with full reorthogonalization from the fixed start
    vector, at most n // 4 steps, for n >= 96 (``_lanczos_pair``).  It
    returns the Rayleigh quotient of the unit Ritz vector v and ||G v -
    lambda v||, certified by a Cholesky factorization of G - (lambda - 4 n
    eps ||G||) I: that matrix is then positive definite to working
    precision, so lambda_min lies within 4 n eps ||G|| below lambda.
    Where the steps do not converge in their budget, where the decay of
    their residual bound cannot get there in time (checked from the
    twelfth step on), or where the factorization fails, the eigenvalue and
    residual are those of ``_least_eigenpair`` (``eigvalsh`` and inverse
    iteration), bit for bit; so is every list of fewer than 96 terms.  In
    process, on a 2-vCPU Xeon: greedy prefixes converge in 16 to 20 steps
    (150 terms on [0, 1/4]: 2.8 -> 1.7 ms; 200 terms on four or six
    intervals: 10 -> 4.6 ms), an arithmetic progression 0..199 on [0, 0.3]
    in 36 (4.5 -> 3.5 ms), and 1000 greedy terms on [0, 1e-6] in 52
    (180 -> 112 ms).  The progression over six intervals and 150 greedy
    terms on [0, 0.05] fall back at the twelfth step (9.1 -> 9.9 ms and
    3.0 -> 3.4 ms).  ``ls_constant`` keeps ``eigvalsh``: a band
    compression has a clustered spectrum, and its dense union forms took
    64 to 124 of n = 65 to 129 steps, 3.5 to 7 times the ``eigvalsh``
    route's time.
    """
    intervals = _torus_intervals(E, seq)
    if len(intervals) == 1:
        (a, b), = intervals
        h = (Fraction(*_ratio(b)) - Fraction(*_ratio(a))) / 2
        K = _gram_entries(seq.values, [(-h, h)], 1)
        if np.max(np.abs(K.imag)) > HERMITIAN_TOL:
            raise ValueError("one-interval Gram matrix is not real within tolerance")
        lam, residual = _least_value(np.ascontiguousarray(K.real))
    else:
        lam, residual = _least_value(gram_matrix(E, seq).entries)
    return _estimate(
        lam,
        residual,
        {
            "model": "torus_gram",
            "dimension": len(seq),
            "set_measure": float(E.measure),
        },
    )


def ls_constant(E: ThickSet, profile, grid: Grid) -> ConcentrationEstimate:
    """Concentration constant of a thick set against a spectral profile.

    Builds the compression of multiplication by the indicator of E to the
    span of grid exponentials with frequencies in the profile; entries are
    the closed-form Gram integrals over E, normalized so a full window gives
    the identity.  Returns the smallest eigenvalue and C = 1/lambda_min, the
    best constant of the norm inequality on the truncated model space.  The
    span is over ``grid.band_bins(profile)``, refused unless 2*max|k| < S.

    A set of ``periodic_comb`` whose M blocks of width delta tile the grid
    period (M delta = T) is solved class by class (``_comb_eigenpair``): the
    compression is the direct sum of one block per residue class of the bins
    mod M.  Every other set, a comb rebuilt from its intervals included,
    gets the dense n x n form.  Either way the dense solver cap applies to
    the number n of bins, before anything is assembled.
    """
    _check_on_grid(E, grid)
    T = grid.period
    bins = grid.band_bins(profile)
    n = bins.size
    _require_dense(n)
    comb = E.comb
    if comb is not None and comb.blocks * comb.delta == T:
        lam, residual = _comb_eigenpair(comb, bins)
    else:
        form = HermitianForm(n, _gram_entries(bins.tolist(), _set_intervals(E, grid), T),
                             {"kind": "ls_compression"})
        vals, _, residual = hermitian_eigensystem(form)
        lam = float(vals[0])
    return _estimate(
        lam,
        residual,
        {
            "model": "ls_compression",
            "dimension": n,
            "set_measure": float(E.measure),
            "grid": {"period": T, "samples": grid.samples},
        },
    )


def _comb_eigenpair(comb: Comb, bins: np.ndarray) -> tuple:
    """(lambda_min, residual) of the compression to the bins over a comb of
    M = ``comb.blocks`` blocks that tile the grid period T, M delta = T.

    Entry (k, l) is (1/T) int_E e^{2 pi i (k - l) x / T} dx.  Summed over
    the blocks it is M times one block's integral when M divides k - l, and
    0 otherwise, so the compression is the direct sum of one block per
    residue class of the bins mod M.  With x = delta u, a class's block is
    the torus Gram matrix of its offsets (k - k_0) / M from its first bin
    k_0 over the one interval [w0, w0 + fill] / delta, so a full comb
    (fill = delta) gives identity blocks exactly.  A Gram entry depends only
    on the difference of its two frequencies, so every block is the
    principal submatrix, at its class's offsets, of one Gram matrix
    (``_gram_entries``) of the sorted distinct offsets of all classes, at
    most n of them.

    The classes of one size are stacked, less each class whose offsets
    repeat the previous class's (a band has one pattern per size, and a
    lacunary profile's pattern changes only where a band edge falls), and
    solved by one batched ``eigh`` per size.  lambda_min is the least
    eigenvalue of all blocks, the residual is ||G_c v - lambda_min v|| of
    the block c that attains it, and the residual contract takes max
    |lambda| over all blocks as ||G||.
    """
    M = comb.blocks
    residues = bins % M
    ordered = bins[np.lexsort((bins, residues))]  # by class, each class increasing
    _, first, sizes = np.unique(np.sort(residues), return_index=True, return_counts=True)
    offsets, index = np.unique((ordered - np.repeat(ordered[first], sizes)) // M,
                               return_inverse=True)
    table = _gram_entries(offsets.tolist(), [(comb.start / comb.delta,
                                              (comb.start + comb.fill) / comb.delta)], 1)
    _require_hermitian(table)
    least, scale = None, 0.0
    for size in np.unique(sizes):
        rows = index[first[sizes == size][:, None] + np.arange(size)]
        rows = rows[np.concatenate(([True], (rows[1:] != rows[:-1]).any(axis=1)))]
        G = table[rows[:, :, None], rows[:, None, :]]
        vals, vecs = np.linalg.eigh(G)
        scale = max(scale, float(np.max(np.abs(vals))))
        c = int(np.argmin(vals[:, 0]))
        if least is None or vals[c, 0] < least[0]:
            least = (float(vals[c, 0]), G[c], vecs[c, :, 0])
    lam, G, v = least
    residual = _residual(G @ v, v, lam, scale)
    _require_residual(residual, scale)
    return lam, residual


def _lemma_window(E: ThickSet, grid: Grid, interval) -> tuple:
    """The lemma's domains of integration: the window I = [lo, hi] as one
    interval, and I ∩ E.  E is checked against the grid and I against
    [0, T], with no tolerance: F is a function on the period [0, T]."""
    trace = _set_intervals(E, grid)
    lo, hi = float(interval[0]), float(interval[1])
    if not 0.0 <= lo <= hi <= grid.period:
        raise ValueError(f"interval I = [{lo}, {hi}] is not inside the grid window "
                         f"[0, T] = [0.0, {grid.period}]")
    return [(lo, hi)], [(max(a, lo), min(b, hi)) for a, b in trace if min(b, hi) > max(a, lo)]


def _forms(pieces, intervals, period, cap: int, X: np.ndarray) -> np.ndarray:
    """Re(x^T G conj(x)) for each row x of each trial's X[t] (trials x r x n),
    G the Gram matrix over the intervals of the frequencies s + k of the
    pieces (s, k), k integer bins and s a shift: T times it is the integral
    of |sum_l x_l e^{2 pi i f_l x / T}|^2 over them.  An entry depends only
    on the difference of its two frequencies and takes the closed form once
    per distinct one.  When G holds at most cap entries it is built, and
    each trial takes one product with it.  Past that, for each pair of
    shifts (an integer shift is folded into its bins) the closed form is
    taken on the range of the differences, at most 2S - 1 numbers for
    |k + s| < S/2, and dotted with the correlation of a trial's
    coefficients on those bins (``_correlate_rows``, by FFT).
    Each trial takes the same calls whatever the others, so a row has the
    same bits alone or in a batch.  No intervals or no frequencies give 0."""
    out = np.zeros(X.shape[:2])
    if not intervals or not X.shape[2]:
        return out
    ints = [isinstance(s, int) for s, _ in pieces]
    shift = np.concatenate([np.full(len(b), 0 if i else s) for i, (s, b) in zip(ints, pieces)])
    k = np.concatenate([np.asarray(b, dtype=np.int64) + (s if i else 0)
                        for i, (s, b) in zip(ints, pieces)])
    if k.size ** 2 <= cap:
        d = (shift[:, None] - shift) + (k[:, None] - k)
        G = _closed_form(d.ravel() / period, intervals, period).reshape(d.shape)
        for acc, x, xc in zip(out, X, X.conj()):
            acc += np.add.reduce((x @ G) * xc, axis=-1).real
        return out
    shifts, group = np.unique(shift, return_inverse=True)
    members = [np.flatnonzero(group == g) for g in range(len(shifts))]
    low = [int(k[m].min()) for m in members]
    for (p, s), (q, t) in itertools.product(enumerate(shifts), repeat=2):
        kp, kq = k[members[p]] - low[p], k[members[q]] - low[q]  # bins from the lowest
        lo = low[p] - low[q] - int(kq.max())
        table = _closed_form(((s - t) + np.arange(lo, lo + kp.max() + kq.max() + 1)) / period,
                             intervals, period)
        for acc, x in zip(out, X):
            a = np.zeros((len(x), kp.max() + 1), dtype=complex)
            b = np.zeros((len(x), kq.max() + 1), dtype=complex)
            rows = np.arange(len(x))[:, None]  # bins of two pieces may coincide: add
            np.add.at(a, (rows, kp), x[:, members[p]])
            np.add.at(b, (rows, kq), x[:, members[q]])
            acc += (_correlate_rows(a, b) @ table).real
    return out


def _correlate_rows(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """np.correlate(u, v, "full") of each row u of a with the same row v of
    b: the convolution of u with conj(v) reversed, from one product of
    their FFTs zero-padded to a power of two, O(S log S) for S bins where
    the direct sums cost O(S^2)."""
    size = a.shape[1] + b.shape[1] - 1
    n = 1 << (size - 1).bit_length()
    product = np.fft.fft(a, n) * np.fft.fft(b[:, ::-1].conj(), n)
    return np.fft.ifft(product)[:, :size]


@dataclass(frozen=True)
class LemmaTerms:
    """The local concentration inequality's three terms, as exact integrals."""

    lhs: float
    term_density: float
    term_sobolev: float

    def to_dict(self) -> dict:
        return {"lhs": self.lhs, "term_density": self.term_density,
                "term_sobolev": self.term_sobolev}


def _end_bins(f: BandFunction) -> tuple:
    """Lowest and highest signed bin of f: those of its declared support, or,
    with none declared, of the kept bins holding more than LEAKAGE_TOL of
    its spectral mass (FFT round-off leaves no bin of a spectrum taken from
    samples exactly zero).  Empty for a zero function without a declared
    support."""
    if f.declared_support is not None:
        bins = f.grid.band_bins(f.declared_support)
    else:
        mass = np.abs(f.coeffs) ** 2
        bins = f.grid.signed_bins(f.bins[mass > LEAKAGE_TOL * mass.sum()])
    return (int(bins.min()), int(bins.max())) if bins.size else ()


def _lemma_form(lams, grid: Grid, window, pieces):
    """The map from the coefficient rows of trials (trials x the bins of all
    f_n, end to end) to their LemmaTerms (see ``lemma_main_report``).
    ``window`` is the ``_lemma_window`` (I, I ∩ E), and ``pieces[n]`` is
    (f_n's FFT-order bins, its end bins); the Nyquist tests of the end bins
    moved by k_n, and the frequencies of each form, are made once per run.
    Pieces of one bin list share one density form."""
    I, inside = window
    T, S = grid.period, grid.samples
    shifted, groups, ends = [], {}, np.cumsum([0, *(len(bins) for bins, _ in pieces)])
    for n, (lam, (bins, end_bins)) in enumerate(zip(lams, pieces)):
        k = grid.bin_of(lam)  # refuses off-grid modulation
        for b in end_bins:
            grid._check_bin(b + k)
        # off bin k within the snap tolerance: lambda T as it is, not the bin k
        shifted.append((k if k / T == float(lam) else float(lam) * T, grid.signed_bins(bins)))
        groups.setdefault(bins.tobytes(), (bins, []))[1].append(n)

    def terms(C) -> list:
        lhs = _forms(shifted, inside, T, S, C[:, None])[:, 0]
        density, derivative = np.zeros(len(C)), np.zeros(len(C))
        for bins, members in groups.values():
            X = np.stack([C[:, ends[n]:ends[n + 1]] for n in members], axis=1)
            q = _forms([(0, grid.signed_bins(bins))], I, T, S,
                       np.concatenate([X, X * (2j * np.pi * grid.frequencies(bins))], axis=1))
            for j in range(len(members)):  # piece by piece, in one order for any batch
                density += q[:, j]
                derivative += q[:, len(members) + j]
        return [LemmaTerms(T * max(a, 0.0), T * max(b, 0.0), T * max(b, 0.0) + T * max(c, 0.0))
                for a, b, c in zip(lhs.tolist(), density.tolist(), derivative.tolist())]

    return terms


def lemma_main_report(f_list, seq_tail: Sequence, E: ThickSet, interval, L: int) -> LemmaTerms:
    """Measure the three terms of the local concentration inequality.

    lhs           integral over I intersect E of |sum f_n e^{2 pi i lambda_n x}|^2
    term_density  integral over I of sum |f_n|^2
    term_sobolev  integral over I of sum (|f_n|^2 + |f_n'|^2)

    The interval I must have length exactly 1/L and lie inside [0, T].
    Each term is the exact integral of a trigonometric polynomial, nothing
    sampled: a Hermitian form in the coefficients c of the f_n, whose
    entries take the closed form of the Gram kernel (``_forms``).  lhs
    is T c^T A conj(c), A the Gram matrix of the modulated frequencies
    k/T + lambda_n over I ∩ E; the density and Sobolev terms apply the Gram
    matrix D of f_n's bins over I to c_n and to c_n 2 pi i k/T.  A form of
    more than S entries, as of a dense spectrum taken from samples, is never
    built.  Each lambda_n must lie on the grid (1/T)Z within the
    snap tolerance, as bin k_n = lambda_n T; one that misses k_n/T keeps its
    value in A, never rounded to its bin.  A function whose bins, moved by
    k_n, reach a bin the grid does not resolve (2|k| >= S) is refused, as
    its shifted spectrum would alias on the grid (see ``_end_bins``).  This
    is one trial of the forms that ``lemma_trials`` evaluates on an ensemble.
    """
    if L < 1:
        raise ValueError("L must be a positive integer")
    if len(f_list) != len(seq_tail):
        raise ValueError("need one band function per tail frequency")
    i0, i1 = float(interval[0]), float(interval[1])
    if abs((i1 - i0) - 1.0 / L) > 1e-12:
        raise ValueError(f"interval length {i1 - i0} differs from 1/L = {1.0 / L}")
    if not f_list:
        return LemmaTerms(0.0, 0.0, 0.0)
    grid = f_list[0].grid
    if any(f.grid != grid for f in f_list):
        raise ValueError("band functions must share one grid")
    window = _lemma_window(E, grid, (i0, i1))
    terms = _lemma_form(seq_tail.values, grid, window, [(f.bins, _end_bins(f)) for f in f_list])
    coeffs = np.concatenate([np.empty(0, dtype=complex), *(f.coeffs for f in f_list)])
    return terms(coeffs[None])[0]


@dataclass(frozen=True)
class SplitCheck:
    """Concentration ratio of a synthesized function and its head/tail split."""

    ratio: float
    ratio_head: float
    ratio_tail: float

    def to_dict(self) -> dict:
        return {"ratio": self.ratio, "ratio_head": self.ratio_head, "ratio_tail": self.ratio_tail}


def _split_form(shapes, seq: Sequence, schedule: TailSchedule, L: int, E: ThickSet, grid: Grid):
    """The map from the coefficient rows of trials (the blocks held end to
    end) to their SplitChecks (see ``theorem_split_check``).  The refusals
    of ``synthesize`` on blocks of these ``shapes``, and F's bins (the
    blocks' order: positive frequencies increase), are made once per run."""
    if not seq.positive:
        raise ValueError("hypothesis violation: frequencies must be positive")
    M = schedule.value(L)
    bins = synthesize([np.ones(s) for s in shapes], seq, grid).bins
    ends = np.cumsum([0, *(s[0] for s in shapes)])
    pieces = [(0, bins[a:b]) for a, b in zip(ends, ends[1:])]
    intervals = _set_intervals(E, grid)
    head = ends[min(M, len(ends)) - 1]

    def checks(C) -> list:
        X = C[:, None]
        restricted = _forms(pieces, intervals, grid.period, grid.samples, X)[:, 0]
        power = X * X.conj()  # summed as the form sums, so a full set gives ratio 1
        norm, h, t = (np.add.reduce(p, axis=-1)[:, 0].real.tolist()
                      for p in (power, power[..., :head], power[..., head:]))
        if not all(norm):
            raise ValueError("concentration ratio undefined for the zero function")
        return [SplitCheck(math.sqrt(max(r, 0.0) / n), math.sqrt(a / n), math.sqrt(b / n))
                for r, a, b, n in zip(restricted.tolist(), h, t, norm)]

    return checks


def theorem_split_check(
    coefficient_blocks, seq: Sequence, schedule: TailSchedule, L: int, E: ThickSet, grid: Grid
) -> SplitCheck:
    """Synthesize, split at the scheduled tail start, and measure concentration.

    Requires strictly positive frequencies.  Returns the ratio of the norm of
    the synthesized function F restricted to E over its full norm, along
    with the head and tail norm fractions.  F is never sampled: by Parseval
    its squared norm is T c^H c over its coefficients c, and head and tail
    hold disjoint blocks of its spectrum, so the squared norm of each is T
    times the sum of |c|^2 over its blocks and the squares of the two
    fractions sum to one.  The restricted energy, the integral of |F|^2
    over E, is exactly T c^T G conj(c), G the compression of E to F's bins
    that ``ls_constant`` solves, in the closed form of the Gram kernel
    (``_forms``).  So ratio^2 = c^T G conj(c) / c^H c, clamped at 0 against
    rounding.  This is one trial of the form that ``split_trials``
    evaluates on an ensemble.
    """
    blocks = [np.asarray(b, dtype=complex) for b in coefficient_blocks]
    checks = _split_form([b.shape for b in blocks], seq, schedule, L, E, grid)
    return checks(np.concatenate([np.empty(0, dtype=complex), *blocks])[None])[0]
