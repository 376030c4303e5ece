"""Symbolic representation core: normalization, breakpoints, aggregation, discretization.

A series is reduced in three steps: z-normalize, average each segmentation
block into one coefficient, then map each coefficient to the index of the
standard-normal quantile interval it falls in.  The resulting word over a
small alphabet supports a cheap lookup-table distance that never exceeds
the Euclidean distance between the raw series.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from trendsax.segmentation import Segmentation

__all__ = [
    "MAX_ALPHABET",
    "AlphabetTable",
    "PaaVector",
    "SaxWord",
    "gaussian_quantile",
    "make_alphabet_table",
    "paa",
    "symbolize",
    "znormalize",
]

MAX_ALPHABET = 26  # symbols render as letters a..z

# below this population standard deviation a series is treated as constant
_DEGENERATE_STD = 1e-12


def _as_series(values, name: str = "series") -> np.ndarray:
    x = np.asarray(values, dtype=np.float64)
    if x.ndim != 1 or x.size == 0:
        raise ValueError(f"{name} must be a non-empty one-dimensional sequence")
    if not np.isfinite(x).all():
        raise ValueError(f"{name} contains non-finite values")
    return x


def znormalize(values) -> np.ndarray:
    """Shift and scale a series to mean 0 and population standard deviation 1.

    Parameters
    ----------
    values : sequence of finite reals, length >= 1

    Returns
    -------
    Normalized copy.  A series whose population standard deviation is
    below 1e-12 is treated as constant and maps to all zeros, so flat
    inputs never blow up downstream.
    """
    return _znormalize_rows(_as_series(values))


def _znormalize_rows(x: np.ndarray) -> np.ndarray:
    """:func:`znormalize` along the last axis, each row on its own."""
    mu = x.mean(axis=-1, keepdims=True)
    sd = x.std(axis=-1, keepdims=True)
    return np.divide(x - mu, sd, out=np.zeros_like(x), where=sd >= _DEGENERATE_STD)


# Rational approximation coefficients for the standard-normal quantile
# (Acklam's method), refined below by one Newton step.
_Q_A = (
    -3.969683028665376e01,
    2.209460984245205e02,
    -2.759285104469687e02,
    1.383577518672690e02,
    -3.066479806614716e01,
    2.506628277459239e00,
)
_Q_B = (
    -5.447609879822406e01,
    1.615858368580409e02,
    -1.556989798598866e02,
    6.680131188771972e01,
    -1.328068155288572e01,
)
_Q_C = (
    -7.784894002430293e-03,
    -3.223964580411365e-01,
    -2.400758277161838e00,
    -2.549732539343734e00,
    4.374664141464968e00,
    2.938163982698783e00,
)
_Q_D = (
    7.784695709041462e-03,
    3.224671290700398e-01,
    2.445134137142996e00,
    3.754408661907416e00,
)
_Q_P_LOW = 0.02425
_SQRT_2PI = math.sqrt(2.0 * math.pi)


def gaussian_quantile(p: float) -> float:
    """Inverse CDF of the standard normal distribution.

    Rational approximation sharpened by a single Newton correction
    against the erfc-based CDF.  Probabilities above one half reflect
    through the lower half (1 - p is exact there), which keeps the
    Newton residual well conditioned in both tails and makes results
    for exactly complementary probabilities exactly opposite.
    """
    p = float(p)
    if not 0.0 < p < 1.0:
        raise ValueError("quantile probability must lie strictly between 0 and 1")
    if p > 0.5:
        return -gaussian_quantile(1.0 - p)
    if p < _Q_P_LOW:
        q = math.sqrt(-2.0 * math.log(p))
        c, d = _Q_C, _Q_D
        x = (((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]) / (
            (((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0
        )
    else:
        q = p - 0.5
        r = q * q
        a, b = _Q_A, _Q_B
        x = (
            (((((a[0] * r + a[1]) * r + a[2]) * r + a[3]) * r + a[4]) * r + a[5])
            * q
            / (((((b[0] * r + b[1]) * r + b[2]) * r + b[3]) * r + b[4]) * r + 1.0)
        )
    # Newton step: x -= (CDF(x) - p) / pdf(x); x <= 0 here, so the CDF
    # term erfc(-x / sqrt 2) / 2 is at most one half and never cancels
    err = 0.5 * math.erfc(-x / math.sqrt(2.0)) - p
    x -= err * _SQRT_2PI * math.exp(0.5 * x * x)
    return x


@dataclass(frozen=True, eq=False)
class AlphabetTable:
    """Breakpoints and the precomputed symbol-pair distance lookup.

    ``breakpoints`` holds the ``alphabet_size - 1`` interval boundaries in
    increasing order.  ``pair_dist[i, j]`` is the distance charged for
    symbols ``i`` and ``j``: zero when they are equal or adjacent, and the
    gap between the breakpoints just inside them otherwise.  Construction
    enforces the structural invariants (shapes, ordering, symmetry, the
    zero band next to the diagonal) so any instance can be used safely;
    tables built by :func:`make_alphabet_table` additionally satisfy the
    Gaussian equal-probability layout.
    """

    alphabet_size: int
    breakpoints: np.ndarray
    pair_dist: np.ndarray

    def __post_init__(self) -> None:
        alpha = self.alphabet_size
        if not 2 <= alpha <= MAX_ALPHABET:
            raise ValueError(f"alphabet size must be in [2, {MAX_ALPHABET}], got {alpha}")
        bp = np.asarray(self.breakpoints, dtype=np.float64)
        if bp.shape != (alpha - 1,):
            raise ValueError(f"expected {alpha - 1} breakpoints, got shape {bp.shape}")
        if not np.isfinite(bp).all() or (np.diff(bp) <= 0).any():
            raise ValueError("breakpoints must be finite and strictly increasing")
        pd = np.asarray(self.pair_dist, dtype=np.float64)
        if pd.shape != (alpha, alpha):
            raise ValueError(f"pair_dist must be {alpha}x{alpha}, got {pd.shape}")
        if (pd < 0).any() or not np.array_equal(pd, pd.T):
            raise ValueError("pair_dist must be symmetric and non-negative")
        idx = np.arange(alpha)
        near = np.abs(idx[:, None] - idx[None, :]) <= 1
        if pd[near].any():
            raise ValueError("pair_dist must be zero for equal and adjacent symbols")
        for arr in (bp, pd):
            arr.flags.writeable = False
        object.__setattr__(self, "breakpoints", bp)
        object.__setattr__(self, "pair_dist", pd)


@lru_cache(maxsize=MAX_ALPHABET)
def _build_table(alpha: int) -> AlphabetTable:
    bp = np.empty(alpha - 1, dtype=np.float64)
    for i in range(1, alpha):
        if 2 * i < alpha:
            bp[i - 1] = gaussian_quantile(i / alpha)
        elif 2 * i == alpha:
            bp[i - 1] = 0.0
        else:
            # mirror the lower half so the layout is antisymmetric exactly
            bp[i - 1] = -bp[alpha - i - 1]
    idx = np.arange(alpha)
    hi = np.maximum(idx[:, None], idx[None, :])
    lo = np.minimum(idx[:, None], idx[None, :])
    apart = hi - lo > 1
    pair = np.zeros((alpha, alpha), dtype=np.float64)
    pair[apart] = bp[hi[apart] - 1] - bp[lo[apart]]
    return AlphabetTable(alpha, bp, pair)


def make_alphabet_table(alphabet_size: int) -> AlphabetTable:
    """Build the lookup table for an alphabet of ``alphabet_size`` symbols.

    Breakpoints are the standard-normal quantiles at cumulative
    probabilities ``i / alphabet_size``, which makes every symbol equally
    likely under a z-normalized Gaussian series.  Valid sizes are 2..26.
    """
    alpha = int(alphabet_size)
    if not 2 <= alpha <= MAX_ALPHABET:
        raise ValueError(f"alphabet size must be in [2, {MAX_ALPHABET}], got {alphabet_size}")
    return _build_table(alpha)


@dataclass(frozen=True, eq=False)
class PaaVector:
    """Block means of a series: ``means[i]`` averages the points of block ``i``.

    ``source_length`` is the number of source points covered by the
    segmentation (``m * w``); it feeds the length compensation factor of
    the word distance.
    """

    means: np.ndarray
    source_length: int

    def __post_init__(self) -> None:
        means = np.asarray(self.means, dtype=np.float64)
        if means.ndim != 1 or means.size == 0:
            raise ValueError("means must be a non-empty one-dimensional sequence")
        if not np.isfinite(means).all():
            raise ValueError("means contain non-finite values")
        if self.source_length < means.size or self.source_length % means.size:
            raise ValueError(
                f"source_length {self.source_length} is not a positive multiple of m={means.size}"
            )
        means.flags.writeable = False
        object.__setattr__(self, "means", means)

    @property
    def m(self) -> int:
        return self.means.size


def paa(values, seg: Segmentation) -> PaaVector:
    """Average the series over each block of ``seg``.

    The series must cover at least ``seg.n_effective`` points; indices past
    the segmentation (the ``n mod m`` points it drops) are ignored.
    Within a block only membership matters, not order.
    """
    x = _as_series(values)
    if seg.n_effective > x.size:
        raise ValueError(
            f"segmentation covers {seg.n_effective} indices but series has only {x.size}"
        )
    means = x[seg.blocks].mean(axis=1)
    return PaaVector(means, seg.n_effective)


@dataclass(frozen=True, eq=False)
class SaxWord:
    """A series reduced to symbol indices, one per block."""

    symbols: np.ndarray
    alphabet_size: int
    source_length: int

    def __post_init__(self) -> None:
        syms = np.asarray(self.symbols, dtype=np.int64)
        if syms.ndim != 1 or syms.size == 0:
            raise ValueError("symbols must be a non-empty one-dimensional sequence")
        if not 2 <= self.alphabet_size <= MAX_ALPHABET:
            raise ValueError(f"alphabet size must be in [2, {MAX_ALPHABET}]")
        if (syms < 0).any() or (syms >= self.alphabet_size).any():
            raise ValueError("symbol indices must lie in [0, alphabet_size)")
        if self.source_length < syms.size or self.source_length % syms.size:
            raise ValueError(
                f"source_length {self.source_length} is not a positive multiple of m={syms.size}"
            )
        syms.flags.writeable = False
        object.__setattr__(self, "symbols", syms)

    @property
    def m(self) -> int:
        return self.symbols.size

    def to_letters(self) -> str:
        """Render as lowercase letters, 'a' for symbol 0."""
        return "".join(chr(ord("a") + int(s)) for s in self.symbols)


def symbolize(vector: PaaVector, table: AlphabetTable) -> SaxWord:
    """Map each block mean to the symbol of the quantile interval holding it.

    A mean strictly between breakpoints k and k+1 gets symbol k+1 counting
    from the lowest interval; a mean exactly equal to a breakpoint maps to
    the interval below it.  Equivalently, the symbol index is the number of
    breakpoints strictly less than the mean.
    """
    symbols = np.searchsorted(table.breakpoints, vector.means, side="left")
    return SaxWord(symbols.astype(np.int64), table.alphabet_size, vector.source_length)
