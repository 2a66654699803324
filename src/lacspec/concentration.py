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

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericalError
from .sequences import Sequence, TailSchedule
from .sets import ThickSet
from .synthesis import LEAKAGE_TOL, BandFunction, Grid, synthesize

__all__ = [
    "HermitianForm",
    "ConcentrationEstimate",
    "CellQuadrature",
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
    scale = float(np.max(np.abs(vals))) if form.dimension else 0.0
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
    if E.measure <= 0:
        raise ValueError("set must have positive measure")
    return intervals


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


class CellQuadrature:
    """The trial-independent part of the sampled quadratures over I and I ∩ E.

    An integral over a window I, or over I ∩ E, is a sum of grid samples
    times the Lebesgue measure of each cell [x_j, x_{j+1}) inside it (exact
    for integrands constant on each cell).  These cell weights, and the
    multiplier 2 pi i xi of a derivative over the grid's bins, depend only on
    E, the grid and I, never on the functions integrated; so a trial loop
    builds one CellQuadrature per run and passes it to every trial.  I
    defaults to the whole period [0, T].  Construction checks E against the
    grid; each array is built on first use.
    """

    def __init__(self, E: ThickSet, grid: Grid, interval=None):
        self.trace = _set_intervals(E, grid)
        self.E, self.grid = E, grid
        self.interval = self._window(grid, interval)

    @staticmethod
    def _window(grid: Grid, interval) -> tuple:
        lo, hi = (0.0, grid.period) if interval is None else interval
        return float(lo), float(hi)

    @functools.cached_property
    def window_weights(self) -> np.ndarray:
        return _cell_weights(self.grid, [self.interval])

    @functools.cached_property
    def set_weights(self) -> np.ndarray:
        return _cell_weights(self.grid, _clip_intervals(self.trace, *self.interval))

    @functools.cached_property
    def derivative_multiplier(self) -> np.ndarray:
        return 2j * np.pi * self.grid.frequencies()

    @classmethod
    def reuse(cls, cells, E: ThickSet, grid: Grid, interval=None) -> "CellQuadrature":
        """``cells`` if it was built for E, the grid and I; a new one if it is None."""
        if cells is None:
            return cls(E, grid, interval)
        if (cells.E, cells.grid, cells.interval) != (E, grid, cls._window(grid, interval)):
            raise ValueError("cell quadrature was built for another set, grid or interval")
        return cells


@dataclass(frozen=True)
class LemmaTerms:
    """Quadrature record of the local concentration inequality's three terms."""

    lhs: float
    term_density: float
    term_sobolev: float

    def to_dict(self) -> dict:
        return {
            "lhs": self.lhs,
            "term_density": self.term_density,
            "term_sobolev": self.term_sobolev,
        }


def _end_bins(f: BandFunction) -> tuple:
    """Lowest and highest signed bin of f: those of its declared support, or,
    with none declared, of the bins holding more than LEAKAGE_TOL of its
    spectral mass (FFT round-off leaves no bin of a function built from its
    values exactly zero).  Empty for a zero function without a declared
    support."""
    if f.declared_support is not None:
        bins = f.grid.band_bins(f.declared_support)
    else:
        mass = np.abs(f.spectrum()) ** 2
        bins = f.grid.signed_bins(np.flatnonzero(mass > LEAKAGE_TOL * mass.sum()))
    return (int(bins.min()), int(bins.max())) if bins.size else ()


def lemma_main_report(
    f_list, seq_tail: Sequence, E: ThickSet, interval, L: int, *, cells=None
) -> LemmaTerms:
    """Measure the three terms of the local concentration inequality.

    lhs           integral over I intersect E of |sum f_n e^{2 pi i lambda_n x}|^2
    term_density  integral over I of sum |f_n|^2
    term_sobolev  integral over I of sum (|f_n|^2 + |f_n'|^2)

    The interval I must have length exactly 1/L.  Each lambda_n must lie on
    the grid (1/T)Z, as bin k_n = lambda_n T: on the sampling grid,
    multiplying f_n by e^{2 pi i lambda_n x} shifts its spectrum circularly
    by k_n bins, so the sum F is one inverse FFT of the shifted spectra, and
    the same spectra give the derivatives f_n'.  A lambda_n that misses k_n/T
    by less than the snap tolerance is modulated sample by sample instead,
    so it is never rounded to its bin.  A function whose bins, moved by k_n,
    reach a bin the grid does not resolve (2|k| >= S) is refused, since its
    shifted spectrum would alias (see ``_end_bins``).  Integrals use
    cell-measure weights on the sampling grid (exact for integrands
    constant on I); ``cells``, a CellQuadrature of E, the grid and I,
    shares them between the trials of an ensemble.
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
    for f in f_list:
        if f.grid != grid:
            raise ValueError("band functions must share one grid")
    cells = CellQuadrature.reuse(cells, E, grid, (i0, i1))
    S = grid.samples
    shifted = np.zeros(S, dtype=complex)
    snapped = []
    sq = np.zeros(S)
    sob = np.zeros(S)
    for f, lam in zip(f_list, seq_tail.values):
        k = grid.bin_of(lam)  # refuses off-grid modulation
        for b in _end_bins(f):
            grid._check_bin(b + k)
        c = f.spectrum()
        if k / grid.period == float(lam):
            k %= S
            shifted[k:] += c[: S - k]
            shifted[:k] += c[S - k:]
        else:
            snapped.append((f, lam))
        sq += np.abs(f.values) ** 2
        df = np.fft.ifft(c * cells.derivative_multiplier)
        df *= S
        sob += np.abs(df) ** 2
    F = np.fft.ifft(shifted)
    F *= S
    for f, lam in snapped:  # off bin k within the snap tolerance: keep lambda exact
        F += f.values * np.exp(2j * np.pi * float(lam) * grid.points())
    w_i = cells.window_weights
    return LemmaTerms(
        float(np.sum(cells.set_weights * np.abs(F) ** 2)),
        float(np.sum(w_i * sq)),
        float(np.sum(w_i * (sq + sob))),
    )


@dataclass(frozen=True)
class SplitCheck:
    """Concentration ratio of a synthesized function and its head/tail split."""

    ratio: float
    ratio_head: float
    ratio_tail: float

    def to_dict(self) -> dict:
        return {
            "ratio": self.ratio,
            "ratio_head": self.ratio_head,
            "ratio_tail": self.ratio_tail,
        }


def theorem_split_check(
    coefficient_blocks,
    seq: Sequence,
    schedule: TailSchedule,
    L: int,
    E: ThickSet,
    grid: Grid,
    *,
    cells=None,
) -> SplitCheck:
    """Synthesize, split at the scheduled tail start, and measure concentration.

    Requires strictly positive frequencies.  Returns the ratio of the norm of
    the synthesized function F restricted to E over its full norm, along
    with the head and tail norm fractions.  Only F is synthesized: head and
    tail hold disjoint blocks of F's spectrum, so by Parseval the squared
    norm of each is T times the sum of |c|^2 over its blocks, and the
    squares of the two fractions sum to one.  ``cells``, a CellQuadrature
    of E and the grid, shares the cell weights of E between the trials of an
    ensemble.
    """
    if not seq.positive:
        raise ValueError("hypothesis violation: frequencies must be positive")
    M = schedule.value(L)
    blocks = list(coefficient_blocks)
    F = synthesize(blocks, seq, grid)
    power = np.abs(F.values) ** 2
    norm_sq = float(np.sum(power) * grid.spacing)  # F.norm_sq, from the same squares
    if norm_sq == 0:
        raise ValueError("concentration ratio undefined for the zero function")
    cells = CellQuadrature.reuse(cells, E, grid)
    energy = [float(np.sum(np.abs(np.asarray(b, dtype=complex)) ** 2)) for b in blocks]
    restricted = float(np.sum(cells.set_weights * power))
    return SplitCheck(
        math.sqrt(restricted / norm_sq),
        math.sqrt(grid.period * sum(energy[: M - 1]) / norm_sq),
        math.sqrt(grid.period * sum(energy[M - 1:]) / norm_sq),
    )
