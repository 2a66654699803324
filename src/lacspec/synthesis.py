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
        as a read-only array.

        The one band rule: [lo, hi] holds the bins ceil(lo*T - FREQ_SNAP_TOL)
        .. floor(hi*T + FREQ_SNAP_TOL).  Raises ValueError when no bin is
        inside, or, before any array is built, unless 2*max|k| < S on the
        integer end bins (the test of bin_of).  Results are memoised per grid
        and support (see ``_support_key``): the last _BAND_MEMO_SIZE of them
        with at most _BAND_MEMO_BINS bins each; refusals are not kept."""
        key = _support_key(self, support)
        bins = _BAND_MEMO.get(key) if key is not None else None
        if bins is None:
            bins = self._band_rule(support)
            bins.setflags(write=False)
            if key is not None and bins.size <= _BAND_MEMO_BINS:
                if len(_BAND_MEMO) >= _BAND_MEMO_SIZE:
                    _BAND_MEMO.pop(next(iter(_BAND_MEMO)), None)  # the oldest
                _BAND_MEMO[key] = bins
        return bins

    def _band_rule(self, support) -> np.ndarray:
        """``band_bins`` without the memo."""
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


_BAND_MEMO: dict = {}  # _support_key -> read-only bins, oldest first
_BAND_MEMO_SIZE = 64
_BAND_MEMO_BINS = 1 << 16


def _support_key(grid: Grid, support):
    """The memo key of ``grid.band_bins(support)``, or None for a support the
    memo does not hold (not a SpectralProfile, tuple or list, or unhashable).

    The key holds the period's type and the type of every number beside the
    numbers, so that supports that compare equal but are typed differently
    (0 and 0.0, 1 and Fraction(1), 16 and 16.0 as a period) never share an
    entry; a list band keys as the tuple of its items."""
    if isinstance(support, SpectralProfile):
        values = ("profile", *support.base_sequence.values)
    elif isinstance(support, (tuple, list)):
        values = ("band", *support)
    else:
        return None
    key = (type(grid.period), grid, tuple(map(type, values)), values)
    try:
        hash(key)
    except TypeError:
        return None
    return key


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
    LEAKAGE_TOL.  A function built from coefficients (``from_spectrum``, or
    ``synthesize`` and ``random_band_function``, which pass only the bins
    they fill) keeps its nonzero bins and their coefficients, checks those,
    and makes its spectrum and its values on first read; one built from its
    values checks the forward FFT of the values.
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

    def _keep(self, **arrays) -> None:
        """Store read-only arrays on the (frozen) instance."""
        for name, a in arrays.items():
            a.setflags(write=False)
            object.__setattr__(self, name, a)

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
    def _from_bins(cls, grid: Grid, bins, coeffs, support=None):
        """The function sum_i coeffs[i] e^{2 pi i k_i x / T}, where bins[i] in
        [0, S) is the FFT-order index of bin k_i, kept as its nonzero bins.

        The bins are sorted; a bin given more than once holds its coefficients
        added to zero in the given order, as ``c[bins] += block`` block by
        block does, and exact zeros are dropped.  No length-S array is made.
        """
        bins = np.asarray(bins, dtype=np.int64)
        order = np.argsort(bins, kind="stable")
        bins = bins[order]
        first = np.ones(bins.size, dtype=bool)
        first[1:] = bins[1:] != bins[:-1]
        summed = np.zeros(np.count_nonzero(first), dtype=complex)
        np.add.at(summed, np.cumsum(first) - 1, np.asarray(coeffs, dtype=complex)[order])
        nonzero = summed != 0
        f = cls.__new__(cls)  # no values yet, so none for __post_init__ to copy
        object.__setattr__(f, "grid", grid)
        object.__setattr__(f, "declared_support", support)
        f._keep(_bins=bins[first][nonzero], _coeffs=summed[nonzero])
        f._check_support()
        return f

    @classmethod
    def from_spectrum(cls, grid: Grid, coeffs: np.ndarray, support=None):
        """The function sum c_k e^{2 pi i k x / T} of the coefficients coeffs.

        The function keeps its own read-only copy of coeffs as its
        ``spectrum()`` and takes its nonzero bins from it once; the support
        check of construction runs on those exact coefficients.  Construction
        transforms nothing: the values are one inverse FFT of coeffs, made on
        first read and kept (see ``__getattr__``).
        """
        c = np.array(coeffs, dtype=complex)
        if c.shape != (grid.samples,):
            raise ValueError("need one coefficient per bin")
        bins = np.flatnonzero(c)
        f = cls._from_bins(grid, bins, c[bins], support)
        f._keep(_spectrum=c)
        return f

    def __getattr__(self, name):
        """The values of a function built from coefficients, on their first
        read: one inverse FFT of its spectrum, read-only and kept.  Runs only
        when the values are not yet in the instance."""
        if name != "values" or "_bins" not in self.__dict__:
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        v = np.fft.ifft(self.spectrum())
        v *= self.grid.samples
        self._keep(values=v)
        return v

    def _nonzero_bins(self) -> tuple:
        """Sorted FFT-order indices of the nonzero coefficients, and those
        coefficients, both read-only: the ones a function built from
        coefficients keeps, or, for one built from its values, the nonzero
        entries of its spectrum, taken on first use and kept."""
        if "_bins" not in self.__dict__:
            c = self.spectrum()
            bins = np.flatnonzero(c)
            self._keep(_bins=bins, _coeffs=c[bins])
        return self._bins, self._coeffs

    def spectrum(self) -> np.ndarray:
        """Discrete Fourier coefficients c_k with f = sum c_k e^{2 pi i k x / T}.

        Read-only, like the values, and made on first use and kept.  A
        function built by ``from_spectrum`` returns the coefficients it was
        built from, bit for bit, and one built from its bins scatters them
        into zeros; their values agree with the spectrum up to the rounding of
        one inverse FFT.  Otherwise the spectrum is the forward FFT of the
        values (the support check of construction reads it).
        """
        c = self.__dict__.get("_spectrum")
        if c is None:
            if "_bins" in self.__dict__:
                c = np.zeros(self.grid.samples, dtype=complex)
                c[self._bins] = self._coeffs
            else:
                c = np.fft.fft(self.values) / self.grid.samples
            self._keep(_spectrum=c)
        return c

    def leakage(self) -> float:
        """Share of the spectral mass outside the declared bins (all of it when
        none are declared), summed over the nonzero bins only: a zero bin
        adds exactly nothing to the mass outside."""
        bins, coeffs = self._nonzero_bins()
        mass = np.abs(coeffs) ** 2
        total = mass.sum()
        if total == 0:
            return 0.0
        support = self.declared_support
        band = self.grid.band_bins(support) if support is not None else np.empty(0, np.int64)
        signed = self.grid.signed_bins(bins)
        inside = np.searchsorted(band, signed, "right") > np.searchsorted(band, signed)
        return float(mass[~inside].sum() / total)

    @property
    def norm_sq(self) -> float:
        """Squared L2 norm over one period."""
        return float(np.sum(np.abs(self.values) ** 2) * self.grid.spacing)

    @property
    def norm(self) -> float:
        return math.sqrt(self.norm_sq)

    def derivative(self) -> "BandFunction":
        bins, coeffs = self._nonzero_bins()
        d = coeffs * (2j * np.pi * self.grid.frequencies(bins))
        return BandFunction._from_bins(self.grid, bins, d, None)


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
    bins = [np.empty(0, dtype=np.int64)]
    for lam, block in zip(seq.values, blocks):
        if block.ndim != 1:
            raise ValueError("coefficient blocks must be one-dimensional")
        grid.bin_of(lam)  # refuses off-grid modulation
        band = grid.band_bins((lam, lam + 1))
        if len(block) > band.size:
            raise ValueError(f"block of {len(block)} coefficients addresses frequencies "
                             f"outside its band [{lam}, {lam} + 1] at T = {grid.period}")
        bins.append(band[: len(block)] % grid.samples)
    coeffs = np.concatenate([np.empty(0, dtype=complex), *blocks])
    return BandFunction._from_bins(grid, np.concatenate(bins), coeffs, profile)


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
    coeffs = rng.standard_normal(bins.size) + 1j * rng.standard_normal(bins.size)
    return BandFunction._from_bins(grid, bins % grid.samples, coeffs, tuple(band))
