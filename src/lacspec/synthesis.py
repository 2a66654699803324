"""Sampled band functions on a periodic window and their spectral transforms.

Functions live on a uniform grid over one period [0, T).  All synthesis
frequencies are required to sit on the frequency grid (1/T)Z, which keeps
Plancherel identities exact (up to rounding) and makes disjoint-spectrum
orthogonality literal: off-grid modulation is refused, never rounded.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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


@dataclass(frozen=True)
class Grid:
    """Uniform sampling of one period: S points spaced T/S apart."""

    period: float
    samples: int

    def __post_init__(self):
        if not 0 < self.period < math.inf:
            raise ValueError("period must be positive and finite")
        if self.samples < 2:
            raise ValueError("need at least two samples")

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
        """Sorted distinct int64 bins of a band (lo, hi) or a SpectralProfile.

        The one band rule: [lo, hi] holds the bins ceil(lo*T - FREQ_SNAP_TOL)
        .. floor(hi*T + FREQ_SNAP_TOL).  Raises ValueError when no bin is
        inside, or, before any array is built, unless 2*max|k| < S on the
        integer end bins (the test of bin_of)."""
        T, profile = self.period, isinstance(support, SpectralProfile)
        try:
            ends = [(math.ceil(lo * T - FREQ_SNAP_TOL), math.floor(hi * T + FREQ_SNAP_TOL))
                    for lo, hi in (support.intervals() if profile else (support,))]
        except OverflowError:
            raise ValueError("Nyquist violation: band edge times T overflows a float") from None
        ends = [(a, b) for a, b in ends if a <= b]
        if not ends:
            raise ValueError(f"{'profile' if profile else 'band'} holds no grid frequencies")
        self._check_bin(max(max(-a, b) for a, b in ends))
        starts = [ends[0][0]] + [b + 1 for _, b in ends[:-1]]  # profile intervals increase
        return np.concatenate([np.arange(max(a, s), b + 1, dtype=np.int64)
                               for (a, b), s in zip(ends, starts)])


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
    """Complex samples over one period plus a declared spectral support.

    The declared support means its bins ``grid.band_bins``, and construction
    verifies it: relative spectral mass outside them must stay below
    LEAKAGE_TOL.  A function built by ``from_spectrum`` keeps the
    coefficients it was built from as its spectrum and checks them; one
    built from its values checks the forward FFT of the values.
    """

    grid: Grid
    values: np.ndarray
    declared_support: object = None  # SpectralProfile | (lo, hi) | None

    def __post_init__(self):
        v = np.asarray(self.values, dtype=complex)
        if v.shape != (self.grid.samples,):
            raise ValueError("values must have one entry per grid point")
        v = v.copy()
        v.setflags(write=False)
        object.__setattr__(self, "values", v)
        self._check_support()

    def _check_support(self) -> None:
        """The leakage refusal of both construction paths."""
        if self.declared_support is not None:
            leak = self.leakage()
            if leak > LEAKAGE_TOL:
                raise ValueError(
                    f"spectral mass {leak:.3e} outside the declared support "
                    f"exceeds the tolerance {LEAKAGE_TOL}"
                )

    @classmethod
    def from_spectrum(cls, grid: Grid, coeffs: np.ndarray, support=None):
        """The function sum c_k e^{2 pi i k x / T} of the coefficients coeffs.

        The values are one inverse FFT of coeffs.  The function keeps its own
        read-only copy of coeffs as its ``spectrum()``, and the support check
        of construction runs on those exact coefficients, with no forward FFT.
        """
        c = np.array(coeffs, dtype=complex)
        if c.shape != (grid.samples,):
            raise ValueError("need one coefficient per bin")
        c.setflags(write=False)
        v = np.fft.ifft(c)
        v *= grid.samples
        v.setflags(write=False)
        f = cls.__new__(cls)  # the fresh values need no copy by __post_init__
        for name, value in (("grid", grid), ("values", v), ("declared_support", support),
                            ("_spectrum", c)):
            object.__setattr__(f, name, value)
        f._check_support()
        return f

    def spectrum(self) -> np.ndarray:
        """Discrete Fourier coefficients c_k with f = sum c_k e^{2 pi i k x / T}.

        Read-only, like the values.  A function built by ``from_spectrum``
        returns the coefficients it was built from, bit for bit; its values
        agree with them up to the rounding of one inverse FFT.  Otherwise the
        spectrum is the forward FFT of the values, computed on first use (the
        support check of construction is one) and kept with the function.
        """
        c = self.__dict__.get("_spectrum")
        if c is None:
            c = np.fft.fft(self.values) / self.grid.samples
            c.setflags(write=False)
            object.__setattr__(self, "_spectrum", c)
        return c

    def leakage(self) -> float:
        """Share of the spectral mass outside the declared bins (all of it when
        none are declared).  Only the bins of nonzero mass are tested: a zero
        bin adds exactly nothing to the mass outside."""
        mass = np.abs(self.spectrum()) ** 2
        total = mass.sum()
        if total == 0:
            return 0.0
        support = self.declared_support
        band = self.grid.band_bins(support) if support is not None else np.empty(0, np.int64)
        bins = np.flatnonzero(mass)
        signed = self.grid.signed_bins(bins)
        inside = np.searchsorted(band, signed, "right") > np.searchsorted(band, signed)
        return float(mass[bins[~inside]].sum() / total)

    @property
    def norm_sq(self) -> float:
        """Squared L2 norm over one period."""
        return float(np.sum(np.abs(self.values) ** 2) * self.grid.spacing)

    @property
    def norm(self) -> float:
        return math.sqrt(self.norm_sq)

    def derivative(self) -> "BandFunction":
        c = self.spectrum() * (2j * np.pi * self.grid.frequencies())
        return BandFunction.from_spectrum(self.grid, c, None)


def synthesize(coefficient_blocks, seq: Sequence, grid: Grid) -> BandFunction:
    """Sum of unit-band pieces modulated to the sequence frequencies.

    Each lambda_n must lie on the grid (1/T)Z.  Block n fills the first of
    the bins ``grid.band_bins((lambda_n, lambda_n + 1))``, refused unless
    2*max|k| < S on them.  The result declares the union of the bands as its
    support.
    """
    blocks = [np.asarray(b, dtype=complex) for b in coefficient_blocks]
    if len(blocks) != len(seq):
        raise ValueError("need exactly one coefficient block per frequency")
    profile = SpectralProfile(seq)
    c = np.zeros(grid.samples, dtype=complex)
    for lam, block in zip(seq.values, blocks):
        if block.ndim != 1:
            raise ValueError("coefficient blocks must be one-dimensional")
        grid.bin_of(lam)  # refuses off-grid modulation
        band = grid.band_bins((lam, lam + 1))
        if len(block) > band.size:
            raise ValueError(f"block of {len(block)} coefficients addresses frequencies "
                             f"outside its band [{lam}, {lam} + 1] at T = {grid.period}")
        c[band[: len(block)] % grid.samples] += block
    return BandFunction.from_spectrum(grid, c, profile)


def spectral_support(f: BandFunction, tol: float = LEAKAGE_TOL) -> set:
    """Frequencies of the bins holding a relative mass above tol."""
    c = f.spectrum()
    mass = np.abs(c) ** 2
    total = mass.sum()
    if total == 0:
        return set()
    freqs = f.grid.frequencies()
    return {float(freqs[k]) for k in np.flatnonzero(mass / total > tol)}


def poisson_transform(g: BandFunction) -> BandFunction:
    """Fourier multiplier e^{-|xi|}: the harmonic extension to height one.

    The declared support is unchanged.  Bins outside ``grid.band_bins`` of
    it carry only float noise on a valid input, but the multiplier can
    amplify their share of the total mass; they are zeroed so the output
    satisfies the same support declaration it inherits.
    """
    c = g.spectrum() * np.exp(-np.abs(g.grid.frequencies()))
    if g.declared_support is not None:
        outside = np.ones(g.grid.samples, dtype=bool)
        outside[g.grid.band_bins(g.declared_support) % g.grid.samples] = False
        c[outside] = 0
    return BandFunction.from_spectrum(g.grid, c, g.declared_support)


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
    c = f.spectrum()
    denom = np.sum(np.abs(c) ** 2)
    if denom == 0:
        raise ValueError("derivative ratio undefined for the zero function")
    num = np.sum(np.abs(2j * np.pi * f.grid.frequencies() * c) ** 2)
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
    c = h.spectrum()
    active = np.abs(c) > 1e-15 * np.abs(c).max()
    freqs = h.grid.frequencies()[active]
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
    c = np.zeros(grid.samples, dtype=complex)
    c[bins % grid.samples] = rng.standard_normal(bins.size) + 1j * rng.standard_normal(
        bins.size
    )
    return BandFunction.from_spectrum(grid, c, tuple(band))
