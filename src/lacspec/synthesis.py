"""Sampled band functions on a periodic window and their spectral transforms.

Functions live on a uniform grid over one period [0, T).  All synthesis
frequencies are required to sit on the frequency grid (1/T)Z, which keeps
Plancherel identities exact (up to rounding) and makes disjoint-spectrum
orthogonality literal: off-grid modulation is refused, never rounded.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .sequences import Sequence

__all__ = [
    "Grid",
    "SpectralProfile",
    "BandFunction",
    "synthesize",
    "spectral_support",
    "poisson_transform",
    "bernstein_ratio",
    "plancherel_polya_ratio",
    "split_uniformly_discrete",
    "random_band_function",
]

LEAKAGE_TOL = 1e-8
FREQ_SNAP_TOL = 1e-9
# The most samples a grid holds: one complex array over it is 1 GiB here.
MAX_SAMPLES = 2**26


@dataclass(frozen=True)
class Grid:
    """Uniform sampling of one period: S points spaced T/S apart, 2 <= S <=
    MAX_SAMPLES."""

    period: float
    samples: int

    def __post_init__(self):
        if isinstance(self.samples, bool) or not isinstance(self.samples, (int, np.integer)):
            raise ValueError(f"samples must be an integer, got {self.samples!r}")
        object.__setattr__(self, "samples", int(self.samples))  # equal grids, equal memo keys
        if not 0 < self.period < math.inf:
            raise ValueError("period must be positive and finite")
        if self.samples < 2:
            raise ValueError("need at least two samples")
        if not self.spacing >= sys.float_info.min:  # T/S underflowed: no frequency grid
            raise ValueError(f"period {self.period} over {self.samples} samples makes the "
                             f"spacing T/S = {self.spacing!r}, not a positive normal float")
        if self.samples > MAX_SAMPLES:
            raise ValueError(f"{self.samples} samples are above {MAX_SAMPLES}, the most a "
                             f"grid holds")

    @property
    def spacing(self) -> float:
        return self.period / self.samples

    def points(self) -> np.ndarray:
        return np.arange(self.samples) * self.spacing

    def frequencies(self, bins=None) -> np.ndarray:
        """Signed bin frequencies k/T of the FFT-order indices ``bins``, by
        default every bin: bit for bit the entries of np.fft.fftfreq."""
        if bins is None:
            bins = np.arange(self.samples)
        return self.signed_bins(bins) * (1.0 / (self.samples * self.spacing))

    def signed_bins(self, bins) -> np.ndarray:
        """Signed bins k, |k| <= S/2, of FFT-order indices in [0, S)."""
        S = self.samples
        return np.where(bins < (S + 1) // 2, bins, bins - S)

    def _check_bin(self, k) -> None:
        """The Nyquist test of every caller: the grid resolves bin k iff 2|k| < S."""
        if 2 * abs(k) >= self.samples:
            raise ValueError(f"Nyquist violation: bin {k} needs 2|k| < S = {self.samples} "
                             f"on the period-{self.period} grid")

    def bin_of(self, freq) -> int:
        """Index of an on-grid frequency; raises if freq is off the grid."""
        k = freq * self.period
        r = round(k)
        if abs(k - r) > FREQ_SNAP_TOL * max(1.0, abs(k)):
            raise ValueError(f"frequency {freq} is not on the grid (1/T)Z")
        self._check_bin(r)
        return int(r)

    def band_bins(self, support) -> np.ndarray:
        """Sorted distinct int64 bins of a band (lo, hi) or a SpectralProfile,
        as a read-only array (see ``_band_bins``).

        On grids of at most 2**16 samples the last 64 results are kept, keyed
        by the value and type of the period and of every number of the
        support: a hit returns the same array.  Refusals are not kept."""
        if isinstance(support, SpectralProfile):
            flat = (True, *support.base_sequence.values)
        else:
            lo, hi = support
            flat = (False, lo, hi)
        rule = _band_bins if self.samples <= 1 << 16 else _band_bins.__wrapped__
        try:
            return rule(self.period, self.samples, *flat)
        except TypeError:  # an unhashable edge is not kept; a refusal recurs
            return _band_bins.__wrapped__(self.period, self.samples, *flat)


@lru_cache(maxsize=64, typed=True)
def _band_bins(period, samples, is_profile, *values) -> np.ndarray:
    """The one band rule, on the grid (period, samples) and the unit bands of
    the profile values or the band (lo, hi) = values.

    [lo, hi] holds the bins ceil(lo*T - FREQ_SNAP_TOL) .. floor(hi*T +
    FREQ_SNAP_TOL).  Raises ValueError when no bin is inside, or, before any
    array is built, unless 2*max|k| < S on the integer end bins (the test of
    bin_of).  ``typed`` keys every number with its type, so equal numbers of
    other types (0, 0.0, Fraction(0), False) never share a result; the
    Nyquist test bounds a result on a grid of at most 2**16 samples below
    2**16 bins."""
    intervals = [(v, v + 1.0) for v in values] if is_profile else [values]
    try:
        ends = [(math.ceil(lo * period - FREQ_SNAP_TOL), math.floor(hi * period + FREQ_SNAP_TOL))
                for lo, hi in intervals]
    except OverflowError:
        raise ValueError("Nyquist violation: band edge times T overflows a float") from None
    ends = [(a, b) for a, b in ends if a <= b]
    if not ends:
        raise ValueError(f"{'profile' if is_profile else 'band'} holds no grid frequencies")
    Grid(period, samples)._check_bin(max(max(-a, b) for a, b in ends))
    starts = [ends[0][0]] + [b + 1 for _, b in ends[:-1]]  # profile intervals increase
    bins = np.concatenate([np.arange(max(a, s), b + 1, dtype=np.int64)
                           for (a, b), s in zip(ends, starts)])
    bins.setflags(write=False)
    return bins


@dataclass(frozen=True)
class SpectralProfile:
    """Union of the unit bands [lambda_n, lambda_n + 1] of a sequence: the
    spectrum of a sum of pieces f_n with spec(f_n) in [0, 1], modulated."""

    base_sequence: Sequence

    def __post_init__(self):
        vals = self.base_sequence.values
        for a, b in zip(vals, vals[1:]):
            if b - a <= 1:
                raise ValueError(f"profile intervals overlap: gap {b - a} <= length 1")

    def intervals(self) -> tuple:
        return tuple((v, v + 1.0) for v in self.base_sequence.values)


@dataclass(frozen=True, eq=False)
class BandFunction:
    """The function sum_i coeffs[i] e^{2 pi i k_i x / T} over one period, where
    bins[i] in [0, S) is the FFT-order index of bin k_i, plus a declared
    spectral support.

    Construction keeps the bins sorted and read-only with their
    coefficients: a bin given more than once holds its coefficients added to
    zero in the given order, as ``c[bins] += block`` block by block does,
    and exact zeros are dropped.  The declared support means its bins
    ``grid.band_bins``, and construction verifies it on the kept
    coefficients: relative spectral mass outside them must stay below
    LEAKAGE_TOL.  It makes no length-S array and transforms nothing; the
    spectrum (the bins scattered into zeros) and the values (one inverse FFT
    of it) are made on first read and kept.
    """

    grid: Grid
    bins: np.ndarray
    coeffs: np.ndarray
    declared_support: object = None  # SpectralProfile | (lo, hi) | None

    def __post_init__(self):
        S = self.grid.samples
        bins, coeffs = np.asarray(self.bins), np.asarray(self.coeffs, dtype=complex)
        if bins.ndim != 1 or bins.shape != coeffs.shape:
            raise ValueError(f"bins and coeffs must be one-dimensional and of one length, "
                             f"got shapes {bins.shape} and {coeffs.shape}")
        order = np.argsort(bins, kind="stable")
        bins = bins[order]
        if bins.size and (bins.dtype.kind not in "iu" or bins[0] < 0 or bins[-1] >= S):
            raise ValueError(f"bins must be integer FFT-order indices in [0, {S})")
        bins = bins.astype(np.int64, copy=False)
        first = np.ones(bins.size, dtype=bool)
        first[1:] = bins[1:] != bins[:-1]
        summed = np.zeros(np.count_nonzero(first), dtype=complex)
        np.add.at(summed, np.cumsum(first) - 1, coeffs[order])
        nonzero = summed != 0
        for name, a in (("bins", bins[first][nonzero]), ("coeffs", summed[nonzero])):
            a.setflags(write=False)
            object.__setattr__(self, name, a)
        if self.declared_support is not None:
            leak = self.leakage()
            if leak > LEAKAGE_TOL:
                raise ValueError(
                    f"spectral mass {leak:.3e} outside the declared support "
                    f"exceeds the tolerance {LEAKAGE_TOL}"
                )

    def __reduce__(self):
        """Pickle the fields alone: unpickling constructs anew, so the arrays
        are read-only again and no spectrum or values travel."""
        return type(self), (self.grid, self.bins, self.coeffs, self.declared_support)

    @classmethod
    def from_spectrum(cls, grid: Grid, coeffs: np.ndarray, support=None):
        """The function sum c_k e^{2 pi i k x / T} of the S coefficients coeffs,
        in FFT order: its nonzero bins and their coefficients."""
        c = np.asarray(coeffs, dtype=complex)
        if c.shape != (grid.samples,):
            raise ValueError("need one coefficient per bin")
        nonzero = np.flatnonzero(c)
        return cls(grid, nonzero, c[nonzero], support)

    def spectrum(self) -> np.ndarray:
        """Discrete Fourier coefficients c_k with f = sum c_k e^{2 pi i k x / T},
        in FFT order: the kept coefficients scattered into zeros, read-only,
        made on first use and kept."""
        return self._scattered

    @cached_property
    def _scattered(self) -> np.ndarray:
        c = np.zeros(self.grid.samples, dtype=complex)
        c[self.bins] = self.coeffs
        c.setflags(write=False)
        return c

    @cached_property
    def values(self) -> np.ndarray:
        """Samples at ``grid.points()``: one inverse FFT of the spectrum,
        read-only, made on first read and kept."""
        v = np.fft.ifft(self.spectrum())
        v *= self.grid.samples
        v.setflags(write=False)
        return v

    def _outside(self) -> np.ndarray:
        """Whether each kept bin lies outside the declared bins (every one when
        none are declared)."""
        if self.declared_support is None:
            return np.ones(self.bins.size, dtype=bool)
        band = self.grid.band_bins(self.declared_support)
        signed = self.grid.signed_bins(self.bins)
        return np.searchsorted(band, signed, "right") == np.searchsorted(band, signed)

    def leakage(self) -> float:
        """Share of the spectral mass outside the declared bins (all of it when
        none are declared), summed over the kept bins only: a zero bin adds
        exactly nothing to the mass outside."""
        mass = np.abs(self.coeffs) ** 2
        total = mass.sum()
        if total == 0:
            return 0.0
        return float(mass[self._outside()].sum() / total)

    @property
    def norm_sq(self) -> float:
        """Squared L2 norm over one period."""
        return float(np.sum(np.abs(self.values) ** 2) * self.grid.spacing)

    @property
    def norm(self) -> float:
        return math.sqrt(self.norm_sq)

    def derivative(self) -> "BandFunction":
        d = self.coeffs * (2j * np.pi * self.grid.frequencies(self.bins))
        return BandFunction(self.grid, self.bins, d)


def synthesize(coefficient_blocks, seq: Sequence, grid: Grid) -> BandFunction:
    """Sum of unit-band pieces modulated to the sequence frequencies.

    Each lambda_n must lie on the grid (1/T)Z.  Block n fills the first of
    the bins ``grid.band_bins((lambda_n, lambda_n + 1))``, refused unless
    2*max|k| < S on them, and refused when another block fills one of them
    too (two bands less than 1/T more than 1 apart can share the bin
    between them).  The result declares the union of the bands as its
    support.
    """
    blocks = [np.asarray(b, dtype=complex) for b in coefficient_blocks]
    if len(blocks) != len(seq):
        raise ValueError("need exactly one coefficient block per frequency")
    profile = SpectralProfile(seq)
    bins = [np.empty(0, dtype=np.int64)]
    for lam, block in zip(seq.values, blocks):
        if block.ndim != 1:
            raise ValueError("coefficient blocks must be one-dimensional")
        grid.bin_of(lam)  # refuses off-grid modulation
        band = grid.band_bins((lam, lam + 1))
        if len(block) > band.size:
            raise ValueError(f"block of {len(block)} coefficients addresses frequencies "
                             f"outside its band [{lam}, {lam} + 1] at T = {grid.period}")
        bins.append(band[: len(block)])
    filled = np.concatenate(bins)
    # a later band's bins never lie below an earlier one's: a shared bin is filled twice in a row
    shared = np.flatnonzero(filled[1:] == filled[:-1])
    if shared.size:
        ends = np.cumsum([b.size for b in bins[1:]])
        n, m = np.searchsorted(ends, [shared[0], shared[0] + 1], "right")
        lo, hi = seq.values[n], seq.values[m]
        raise ValueError(f"bands [{lo}, {lo} + 1] and [{hi}, {hi} + 1] share bin "
                         f"{filled[shared[0]]} at T = {grid.period}, and both blocks fill it")
    coeffs = np.concatenate([np.empty(0, dtype=complex), *blocks])
    return BandFunction(grid, filled % grid.samples, coeffs, profile)


def spectral_support(f: BandFunction, tol: float = LEAKAGE_TOL) -> set:
    """Frequencies of the kept bins holding a relative mass above tol, a share
    of the mass in [0, 1)."""
    if not 0 <= tol < 1:
        raise ValueError(f"tol {tol} is outside [0, 1)")
    mass = np.abs(f.coeffs) ** 2
    total = mass.sum()
    if total == 0:
        return set()
    return {float(x) for x in f.grid.frequencies(f.bins[mass / total > tol])}


def poisson_transform(g: BandFunction) -> BandFunction:
    """Fourier multiplier e^{-|xi|}: the harmonic extension to height one.

    The declared support is unchanged.  Bins outside ``grid.band_bins`` of
    it carry only float noise on a valid input, but the multiplier can
    amplify their share of the total mass; they are zeroed so the output
    satisfies the same support declaration it inherits.
    """
    c = g.coeffs * np.exp(-np.abs(g.grid.frequencies(g.bins)))
    if g.declared_support is not None:
        c[g._outside()] = 0
    return BandFunction(g.grid, g.bins, c, g.declared_support)


def _require_unit_band(f: BandFunction) -> None:
    """Refuse f unless its declared bins lie among the bins of [0, 1]."""
    if f.declared_support is not None:
        bins = f.grid.band_bins(f.declared_support)
        try:
            top = f.grid.band_bins((0.0, 1.0))[-1]
        except ValueError:  # [0, 1] passes the Nyquist bin, so every declared bin
            top = math.inf
        if bins[0] < 0 or bins[-1] > top:
            raise ValueError(f"declared support (bins {bins[0]}..{bins[-1]}) leaves [0, 1]")


def bernstein_ratio(f: BandFunction) -> float:
    """Derivative-to-function L2 ratio, computed spectrally.

    For declared support inside [0, 1] the exact bound is 2*pi, attained at
    the pure frequency 1.
    """
    _require_unit_band(f)
    denom = np.sum(np.abs(f.coeffs) ** 2)
    if denom == 0:
        raise ValueError("derivative ratio undefined for the zero function")
    num = np.sum(np.abs(f.derivative().coeffs) ** 2)
    return float(np.sqrt(num / denom))


def plancherel_polya_ratio(h: BandFunction, points, delta) -> float:
    """Sample-energy to norm ratio over a separated point set.

    Points are evaluated by exact trigonometric interpolation from the
    nonzero coefficients (the samples are values of a trigonometric
    polynomial, so no other interpolation is needed).  Over the full integer
    grid {0, ..., T-1} with support in [0, 1) the ratio is the Parseval
    identity and equals 1.
    """
    if delta <= 0:
        raise ValueError("separation delta must be positive")
    _require_unit_band(h)
    pts = np.sort(np.asarray(points, dtype=float))
    if pts.size == 0:
        raise ValueError("need at least one sample point")
    if pts.size > 1 and np.min(np.diff(pts)) < delta - 1e-12:
        raise ValueError(
            f"points are not uniformly discrete at separation {delta}"
        )
    norm_sq = h.norm_sq
    if norm_sq == 0:
        raise ValueError("sampling ratio undefined for the zero function")
    c = h.coeffs
    active = np.abs(c) > 1e-15 * np.abs(c).max()
    freqs = h.grid.frequencies(h.bins[active])
    vals = np.exp(2j * np.pi * np.outer(pts, freqs)) @ c[active]
    return float(np.sum(np.abs(vals) ** 2) / norm_sq)


def split_uniformly_discrete(values, delta) -> list[list]:
    """Greedy split of a point set into delta-separated parts.

    Each sorted point goes to the first part whose last element is at least
    delta behind it.  If every point has at most N others within delta, at
    most N + 1 parts appear.
    """
    if delta <= 0:
        raise ValueError("separation delta must be positive")
    parts: list[list] = []
    for v in sorted(values):
        for part in parts:
            if v - part[-1] >= delta:
                part.append(v)
                break
        else:
            parts.append([v])
    return parts


def random_band_function(
    grid: Grid, rng, band=(0.0, 1.0), *, include_right: bool = True
) -> BandFunction:
    """Standard complex Gaussian coefficients on ``grid.band_bins(band)``,
    refused unless 2*max|k| < S on those bins; without ``include_right`` a
    bin on the right edge hi*T is left out."""
    bins = grid.band_bins(band)
    if not include_right and abs(bins[-1] - band[1] * grid.period) <= FREQ_SNAP_TOL:
        if bins.size == 1:
            raise ValueError("band holds no grid frequencies left of its right edge")
        bins = bins[:-1]
    coeffs = rng.standard_normal(bins.size) + 1j * rng.standard_normal(bins.size)
    return BandFunction(grid, bins % grid.samples, coeffs, tuple(band))
