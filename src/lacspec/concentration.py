"""Concentration operators: Gram matrices, extremal eigenvalues, inequality probes.

The central device is the compression of multiplication by the indicator of
a set E to a finite span of exponentials.  Its entries are Gram integrals
over E, computed in closed form per interval (never by sampled quadrature,
which is kept only as a cross-check oracle in the tests), so eigenvalues are
limited by linear-algebra conditioning alone.  The smallest eigenvalue is the
best concentration constant on the truncated model space, and 1/lambda_min
the constant of the norm inequality it certifies.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .errors import NumericalError
from .sequences import Sequence, TailSchedule
from .sets import ThickSet
from .synthesis import LEAKAGE_TOL, BandFunction, Grid, _samples, synthesize

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


def _phase_integrals(a, b, d: np.ndarray) -> np.ndarray:
    """Closed form of the integral of e^{2 pi i d x} over [a, b], for each d.

    Written as e^{i pi d (a+b)} * sin(pi d (b-a)) / (pi d) with both phases
    range-reduced, so the result is exactly zero wherever d*(b-a) is an
    integer (full-period oscillations), which keeps full-window compressions
    exactly diagonal.  Where d*(b-a) is zero or subnormal, the sine has lost
    its digits and the d -> 0 limit b - a is returned instead.
    """
    width, center = float(b - a), float(a + b)
    dw = d * width
    k = np.round(dw)
    s = np.sin(np.pi * (dw - k)) * (1 - 2 * (k % 2))
    phase = d * center
    phase -= 2 * np.round(phase / 2)
    with np.errstate(invalid="ignore"):
        z = np.exp(1j * np.pi * phase) * (s / (np.pi * d))
    return np.where(np.abs(dw) < np.finfo(float).tiny, width, z)


def interval_phase_integral(a, b, d) -> complex:
    """Integral of e^{2 pi i d x} over [a, b]: the scalar view of the Gram kernel."""
    return complex(_phase_integrals(a, b, np.array([float(d)]))[0])


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
        if np.max(np.abs(m - m.conj().T)) > HERMITIAN_TOL:
            raise ValueError("matrix is not Hermitian within tolerance")
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


def _require_dense(dimension: int) -> None:
    """The dense solver cap, tested before a form is assembled or solved."""
    if dimension > MAX_DENSE_DIM:
        raise ValueError(f"dimension {dimension} exceeds the dense solver cap {MAX_DENSE_DIM}")


def hermitian_eigensystem(form: HermitianForm):
    """Full dense Hermitian decomposition with a residual contract.

    Returns (eigenvalues ascending, eigenvectors, residual of the smallest
    pair).  Raises NumericalError when the residual exceeds
    EIG_RESIDUAL_TOL times the spectral norm.
    """
    _require_dense(form.dimension)
    vals, vecs = np.linalg.eigh(form.entries)
    v0 = vecs[:, 0]
    residual = float(np.linalg.norm(form.entries @ v0 - vals[0] * v0))
    scale = float(np.max(np.abs(vals)))
    if scale > 0 and residual > EIG_RESIDUAL_TOL * scale:
        raise NumericalError(
            f"eigensolver residual {residual:.3e} exceeds "
            f"{EIG_RESIDUAL_TOL} * ||G|| = {EIG_RESIDUAL_TOL * scale:.3e}"
        )
    return vals, vecs, residual


def _set_intervals(E: ThickSet, grid: Grid | None = None) -> tuple:
    """The intervals of E once E passes the checks of its window.

    Without a grid E must lie inside the unit torus [0, 1], and its
    endpoints are returned as given (exact types stay exact).  With a grid
    E's window must be the grid window [0, T], and the endpoints are
    returned as floats.  Either way E must have positive measure.
    """
    if grid is None:
        for a, b in E.intervals:
            if a < -1e-12 or b > 1 + 1e-12:
                raise ValueError("set must lie inside the unit torus [0, 1]")
        intervals = E.intervals
    else:
        w0, w1 = float(E.window[0]), float(E.window[1])
        if abs(w0) > 1e-9 or abs(w1 - grid.period) > 1e-9 * max(1.0, grid.period):
            raise ValueError("set window must coincide with the grid window [0, T]")
        intervals = tuple((float(a), float(b)) for a, b in E.intervals)
    _require_measure(E)
    return intervals


def _require_measure(E: ThickSet) -> None:
    if E.measure <= 0:  # the refusal of a null set, by every form over E
        raise ValueError("set must have positive measure")


def _gram_entries(freqs, intervals, period) -> np.ndarray:
    """Gram matrix of e^{2 pi i f x / period} over the intervals, over period.

    Differences are exact (Python ints stay ints) until one conversion to
    float; the closed form runs once per distinct difference and interval.
    """
    n = len(freqs)
    rows, cols = np.triu_indices(n)
    exact = np.array(freqs, dtype=object)
    diffs = (exact[rows] - exact[cols]).astype(float) / period
    distinct, inverse = np.unique(diffs, return_inverse=True)
    acc = sum(_phase_integrals(a, b, distinct) for a, b in intervals)
    # true division: numpy's complex / real multiplies by the reciprocal
    entries = (acc.view(float) / period).view(complex)[inverse]
    m = np.zeros((n, n), dtype=complex)
    m[rows, cols] = entries
    m[cols, rows] = entries.conj()
    return m


def gram_matrix(E: ThickSet, seq: Sequence) -> HermitianForm:
    """Gram matrix of the exponentials of a frequency list restricted to E.

    Entry (n, m) is the integral of e^{2 pi i (lambda_n - lambda_m) x} over
    E inside the unit torus, assembled from the per-interval closed form.
    """
    intervals = _set_intervals(E)
    if len(seq) == 0:
        raise ValueError("need at least one frequency")
    return HermitianForm(
        len(seq),
        _gram_entries(seq.values, intervals, 1),
        {
            "kind": "gram",
            "frequencies": [float(v) for v in seq.values],
            "set": E.to_dict(),
        },
    )


def _estimate(form: HermitianForm, discretization: dict) -> ConcentrationEstimate:
    vals, _, residual = hermitian_eigensystem(form)
    lam = float(vals[0])
    if lam < -1e-12:
        raise NumericalError(
            f"compression eigenvalue {lam} is negative beyond tolerance"
        )
    lam = max(lam, 0.0)
    degenerate = lam < DEGENERACY_FLOOR
    constant = math.inf if degenerate else 1.0 / lam
    return ConcentrationEstimate(lam, constant, residual, discretization, degenerate)


def nazarov_constant(E: ThickSet, seq: Sequence) -> ConcentrationEstimate:
    """Best constant of the torus concentration inequality for a finite
    frequency list: the smallest Gram eigenvalue and its reciprocal."""
    _require_dense(len(seq))
    form = gram_matrix(E, seq)
    return _estimate(
        form,
        {
            "model": "torus_gram",
            "dimension": form.dimension,
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
    """
    intervals = _set_intervals(E, grid)
    T = grid.period
    bins = grid.band_bins(profile)
    n = bins.size
    _require_dense(n)
    form = HermitianForm(
        n,
        _gram_entries(bins, intervals, T),
        {
            "kind": "ls_compression",
            "bins": [int(k) for k in bins],
            "grid": {"period": T, "samples": grid.samples},
            "set": E.to_dict(),
        },
    )
    return _estimate(
        form,
        {
            "model": "ls_compression",
            "dimension": n,
            "set_measure": float(E.measure),
            "grid": {"period": T, "samples": grid.samples},
        },
    )


def _cell_weights(grid: Grid, intervals) -> np.ndarray:
    """Lebesgue measure of each grid cell [x_j, x_{j+1}) inside the intervals."""
    edges = np.arange(grid.samples + 1) * grid.spacing
    w = np.zeros(grid.samples)
    for a, b in intervals:
        w += np.clip(
            np.minimum(float(b), edges[1:]) - np.maximum(float(a), edges[:-1]),
            0.0,
            None,
        )
    return w


def _clip_intervals(intervals, lo, hi):
    out = []
    for a, b in intervals:
        a2, b2 = max(float(a), lo), min(float(b), hi)
        if b2 > a2:
            out.append((a2, b2))
    return out


def _lemma_window(E: ThickSet, grid: Grid, interval) -> tuple:
    """The trial-independent part of the lemma's sampled quadratures over the
    window I and over I ∩ E.

    An integral over I, or over I ∩ E, is a sum of grid samples times the
    Lebesgue measure of each cell [x_j, x_{j+1}) inside it (exact for
    integrands constant on each cell).  Returns J, the indices of the cells
    of positive measure inside I (one contiguous run), and the cell weights
    of I and of I ∩ E on J; both are zero outside J.  E is checked against
    the grid and I against [0, T] (no tolerance: the cells cover [0, T]
    only, so the part of I outside it would be dropped from every integral
    without a word).
    """
    trace = _set_intervals(E, grid)
    lo, hi = float(interval[0]), float(interval[1])
    if not 0.0 <= lo <= hi <= grid.period:
        raise ValueError(f"interval I = [{lo}, {hi}] is not inside the grid window "
                         f"[0, T] = [0.0, {grid.period}]")
    window_weights = _cell_weights(grid, [(lo, hi)])
    J = np.flatnonzero(window_weights)
    set_weights = _cell_weights(grid, _clip_intervals(trace, lo, hi))
    return J, window_weights[J], set_weights[J]


@dataclass(frozen=True)
class LemmaTerms:
    """Quadrature record of the local concentration inequality's three terms."""

    lhs: float
    term_density: float
    term_sobolev: float

    def to_dict(self) -> dict:
        return asdict(self)


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


def _fits_table(rows: int, cols: int, grid: Grid) -> bool:
    """The cap of every direct sum over nonzero bins: a rows x cols table of
    phases or weights is built only while it holds at most S entries, so it
    never holds more than a few S-length arrays, as an FFT does."""
    return rows * cols <= grid.samples


def _window_sampler(grid: Grid, bins: np.ndarray, J: np.ndarray):
    """The map c -> (f, f') at the grid samples J, for each f = sum_i c_i
    e^{2 pi i k_i x / T} on the FFT-order bins k_i.

    A direct sum over the bins: c_i e^{2 pi i k_i j / S}, and for f' the same
    terms times 2 pi i k_i / T, with k j reduced mod S in integers.  Its
    |J| x (number of bins) phase table is capped by ``_fits_table``; past
    that (a dense spectrum, as one taken from samples, or a wide band on a
    wide window) one inverse FFT each (``_samples``) is taken and sliced to
    J.  The cost of the two paths crosses near the cap too: timed on one
    Xeon core at S = 16384 and 32768 with the |J| of L = 1, 8 and 16 at T =
    16, the direct sum was about 3.5 times faster at a table of S/8 entries
    (a lemma trial's unit bands at L = 8), 1.4-2.4 times faster at S/3 to
    S/2 and 1.2-1.5 times slower at S.
    """
    S = grid.samples
    derivative = 2j * np.pi * grid.frequencies(bins)
    if _fits_table(J.size, bins.size, grid):
        phases = np.exp((2j * np.pi / S) * ((J[:, None] * bins) % S))
        return lambda c: (phases @ c, phases @ (c * derivative))
    return lambda c: (_samples(grid, bins, c)[J], _samples(grid, bins, c * derivative)[J])


def _lemma_form(lams, grid: Grid, window, pieces):
    """The map from a trial's coefficient vectors, one per f_n, to its
    LemmaTerms (see ``lemma_main_report``).  ``window`` is the
    ``_lemma_window`` (J, w_i, w_e) of I, and ``pieces[n]`` is
    (``_window_sampler`` of f_n on J, f_n's end bins); the Nyquist tests of
    the end bins moved by k_n and the modulation vectors on J are made once
    per run."""
    J, w_i, w_e = window
    S = grid.samples
    modulations = []
    for lam, (_, ends) in zip(lams, pieces):
        k = grid.bin_of(lam)  # refuses off-grid modulation
        for b in ends:
            grid._check_bin(b + k)
        if k / grid.period == float(lam):
            modulations.append(np.exp((2j * np.pi / S) * ((k * J) % S)))
        else:  # off bin k within the snap tolerance: keep lambda exact
            modulations.append(np.exp(2j * np.pi * float(lam) * (J * grid.spacing)))

    def terms(row) -> LemmaTerms:
        F, sq, sob = np.zeros(J.size, dtype=complex), np.zeros(J.size), np.zeros(J.size)
        for (sample, _), modulation, c in zip(pieces, modulations, row):
            v, dv = sample(c)
            F += v * modulation
            sq += np.abs(v) ** 2
            sob += np.abs(dv) ** 2
        return LemmaTerms(float(np.sum(w_e * np.abs(F) ** 2)), float(np.sum(w_i * sq)),
                          float(np.sum(w_i * (sq + sob))))

    return terms


def lemma_main_report(f_list, seq_tail: Sequence, E: ThickSet, interval, L: int) -> LemmaTerms:
    """Measure the three terms of the local concentration inequality.

    lhs           integral over I intersect E of |sum f_n e^{2 pi i lambda_n x}|^2
    term_density  integral over I of sum |f_n|^2
    term_sobolev  integral over I of sum (|f_n|^2 + |f_n'|^2)

    The interval I must have length exactly 1/L and lie inside [0, T].
    Integrals use cell-measure weights on the sampling grid (exact for
    integrands constant on each cell), and these are zero outside the
    samples J of the cells that meet I, so every term is computed on J
    alone: f_n and f_n' from the kept bins of f_n (see ``_window_sampler``;
    past its table cap each is one inverse FFT, as ``f_n.values`` is, taken
    anew), and F from them.  Each lambda_n must lie on the grid (1/T)Z, as
    bin k_n = lambda_n T, and f_n is modulated at x_j by
    e^{2 pi i (k_n j mod S) / S}: on the sampling grid this is the circular
    shift of its spectrum by k_n bins.  A lambda_n that misses k_n/T by less
    than the snap tolerance is modulated by e^{2 pi i lambda_n x_j} instead,
    so it is never rounded to its bin.  A function whose bins, moved by k_n,
    reach a bin the grid does not resolve (2|k| >= S) is refused, since its
    shifted spectrum would alias (see ``_end_bins``).  This is one trial of
    the kernel that ``lemma_trials`` runs on a whole ensemble.
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
    pieces = [(_window_sampler(grid, f.bins, window[0]), _end_bins(f)) for f in f_list]
    return _lemma_form(seq_tail.values, grid, window, pieces)([f.coeffs for f in f_list])


@dataclass(frozen=True)
class SplitCheck:
    """Concentration ratio of a synthesized function and its head/tail split."""

    ratio: float
    ratio_head: float
    ratio_tail: float

    def to_dict(self) -> dict:
        return asdict(self)


def _split_form(shapes, seq: Sequence, schedule: TailSchedule, L: int, E: ThickSet, grid: Grid):
    """The map from a trial's coefficient blocks, held end to end, to its
    SplitCheck (see ``theorem_split_check``).  The refusals of
    ``synthesize`` on blocks of these ``shapes``, the cell weights of E on
    [0, T] and the form W on F's bins (the blocks' order: positive
    frequencies increase) are made once per run."""
    if not seq.positive:
        raise ValueError("hypothesis violation: frequencies must be positive")
    M = schedule.value(L)
    bins = synthesize([np.ones(s) for s in shapes], seq, grid).bins
    weights = _cell_weights(grid, _clip_intervals(_set_intervals(E, grid), 0.0, grid.period))
    ends = np.cumsum([0, *(s[0] for s in shapes)])
    W = None
    if _fits_table(bins.size, bins.size, grid):  # the one transform of a split ensemble
        W = np.fft.fft(weights)[(bins[:, None] - bins) % grid.samples]

    def check(c) -> SplitCheck:
        norm_sq = grid.period * float(np.sum(np.abs(c) ** 2))
        if norm_sq == 0:
            raise ValueError("concentration ratio undefined for the zero function")
        energy = [float(np.sum(np.abs(c[a:b]) ** 2)) for a, b in zip(ends, ends[1:])]
        if W is not None:
            restricted = max(float(np.vdot(c, W @ c).real), 0.0)
        else:
            restricted = float(np.sum(weights * np.abs(_samples(grid, bins, c)) ** 2))
        return SplitCheck(
            math.sqrt(restricted / norm_sq),
            math.sqrt(grid.period * sum(energy[: M - 1]) / norm_sq),
            math.sqrt(grid.period * sum(energy[M - 1:]) / norm_sq),
        )

    return check


def theorem_split_check(
    coefficient_blocks, seq: Sequence, schedule: TailSchedule, L: int, E: ThickSet, grid: Grid
) -> SplitCheck:
    """Synthesize, split at the scheduled tail start, and measure concentration.

    Requires strictly positive frequencies.  Returns the ratio of the norm of
    the synthesized function F restricted to E over its full norm, along
    with the head and tail norm fractions.  F is never sampled: by Parseval
    its squared norm is T sum |c_k|^2 over its coefficients c_k, and head and
    tail hold disjoint blocks of its spectrum, so the squared norm of each
    is T times the sum of |c|^2 over its blocks and the squares of the two
    fractions sum to one.  The restricted energy sum_j w_j |F(x_j)|^2 over
    the cell weights w of E is the quadratic form c^H W c, with W[l, k] =
    fft(w)[(k_l - k_k) mod S] on F's bins k_l; it is clamped at 0 against
    rounding.  A table of more than S entries (see ``_fits_table``) samples
    F by one inverse FFT instead.  This is one trial of the form that
    ``split_trials`` builds once for a whole ensemble.
    """
    blocks = [np.asarray(b, dtype=complex) for b in coefficient_blocks]
    check = _split_form([b.shape for b in blocks], seq, schedule, L, E, grid)
    return check(np.concatenate([np.empty(0, dtype=complex), *blocks]))
