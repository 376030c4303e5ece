"""Symbolic representation core: normalization, breakpoints, aggregation, discretization.

A series is reduced in three steps: z-normalize, average each segmentation
block into one coefficient, then map each coefficient to the index of the
standard-normal quantile interval it falls in.  The resulting word over a
small alphabet supports a cheap lookup-table distance that never exceeds
the Euclidean distance between the raw series.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
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

# values that ``_row_stats`` squares, and ``_block_means`` gathers, at once
_CHUNK_VALUES = 2**16

# ``_symbols`` searches at most this many means and counts more
_SEARCH_MEANS = 1024


def _as_series(values, name: str = "series") -> np.ndarray:
    x = np.asarray(values, dtype=np.float64)
    if x.ndim != 1 or x.size == 0:
        raise ValueError(f"{name} must be a non-empty one-dimensional sequence")
    if not np.isfinite(x).all():
        raise ValueError(f"{name} contains non-finite values")
    return x


def _as_integers(values, name: str) -> np.ndarray:
    """``values`` as int64; ValueError for any value that the cast would truncate or wrap."""
    x = np.asarray(values)
    if x.dtype.kind not in "bi":
        # a string or object array fails as nan: the float cast would read "4" as 4
        x = np.asarray(x, dtype=np.float64) if x.dtype.kind in "uf" else np.array(np.nan)
        if not ((x == np.trunc(x)) & (x >= -(2.0**63)) & (x < 2.0**63)).all():
            raise ValueError(f"{name} must be integral and within the int64 range")
    return x.astype(np.int64, copy=False)


def _read_only(x: np.ndarray, given) -> np.ndarray:
    """``x`` read-only for a record; copied first if it is ``given`` or a view, which the caller may write."""
    if x.flags.writeable:
        if x is given or x.base is not None:
            x = x.copy()
        x.flags.writeable = False
    return x


def _alphabet_size(value) -> int:
    """``value`` as an int; ValueError unless it is integral and in [2, MAX_ALPHABET]."""
    # here and in _source_length an int skips the numpy cast, ~1 µs per word built
    alpha = value if type(value) is int else int(_as_integers(value, "alphabet size"))
    if not 2 <= alpha <= MAX_ALPHABET:
        raise ValueError(f"alphabet size must be in [2, {MAX_ALPHABET}], got {value}")
    return alpha


def _source_length(value, m: int) -> int:
    """``value`` as an int; ValueError unless it is a positive multiple of ``m``."""
    n = value if type(value) is int else int(_as_integers(value, "source_length"))
    if n < m or n % m:
        raise ValueError(f"source_length {value} is not a positive multiple of m={m}")
    return n


def znormalize(values) -> np.ndarray:
    """A copy of a non-empty series of finite reals, shifted and scaled to mean 0 and standard deviation 1.

    The standard deviation is the population one.  A series whose standard
    deviation is below 1e-12 is treated as constant and maps to all +0.0,
    so flat inputs never blow up downstream.  Raises ValueError if a value
    is not finite or the mean or standard deviation overflows.  The steps
    are those :func:`_block_means` takes on a split's rows: subtract the
    :func:`_row_stats` centre, then divide by their scale.
    """
    x = _as_series(values)
    mean, sd = _row_stats(x)
    return (x - mean) / sd


def _row_stats(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each row's centre and scale along the last axis, as (..., 1) arrays, to subtract and divide by.

    They are the row's mean and population standard deviation, with the
    bits of ``x.mean`` and ``x.std``, whose steps they repeat; the centred
    squares are taken about ``_CHUNK_VALUES`` values at a time, so no
    full-size array exists.  A row is constant if its standard deviation
    is below ``_DEGENERATE_STD``, or is not finite while its mean is and
    its max equals its min: ``np.full(10, 1e300)``'s mean misses its value
    and the squares overflow, with numpy's warning, which ``znormalize``
    keeps and ``LabeledDataset._stats`` silences once per split (entering
    ``np.errstate`` here would cost each ``znormalize`` about 1 µs).  Any
    other non-finite standard deviation raises ValueError, which for
    finite ``x`` also covers the means.  A constant row gets ``min - 1.0``
    and ``+inf``: every value is at least the row's min, so it centres to
    ``+0.0`` or above and divides to ``+0.0``.  They serve :func:`znormalize`
    and, cached as ``LabeledDataset._stats``, :func:`_block_means`.
    """
    n = x.shape[-1]
    # x.mean's own steps, without its Python-level overhead (about 2 µs a call)
    mean = np.add.reduce(x, axis=-1, keepdims=True)
    mean /= n
    sd = np.empty_like(mean)
    rows, means, sums = x.reshape(-1, n), mean.reshape(-1, 1), sd.reshape(-1)
    step = max(1, _CHUNK_VALUES // n)
    for i0 in range(0, rows.shape[0], step):
        d = rows[i0:i0 + step] - means[i0:i0 + step]
        d *= d
        np.add.reduce(d, axis=-1, out=sums[i0:i0 + step])
    sd /= n
    np.sqrt(sd, out=sd)
    usual = (sd >= _DEGENERATE_STD) & (sd < np.inf)
    if not usual.all():
        lo = x.min(axis=-1, keepdims=True)
        flat = ~usual & ((sd < _DEGENERATE_STD) | (np.isfinite(mean) & (x.max(axis=-1, keepdims=True) == lo)))
        if not (usual | flat).all():
            raise ValueError("series contains non-finite values")
        mean[flat], sd[flat] = lo[flat] - 1.0, np.inf
    return mean, sd


def _block_means(x: np.ndarray, seg: Segmentation, mean: np.ndarray | None = None,
                 sd: np.ndarray | None = None) -> np.ndarray:
    """Read-only (N, m) block means of ``seg`` over every row of ``x``, the one definition behind :func:`paa`.

    Each block adds its points left to right in index order, then divides
    by w, whatever the number of rows or m.  Rows are gathered in chunks of
    about ``_CHUNK_VALUES`` values as (rows, w, m) and the w (rows, m)
    slices are added one after another: a numpy sum over the block axis
    adds pairwise whenever that axis ends up innermost, as it does for m == 1.
    Given the rows' (N, 1) :func:`_row_stats` ``mean`` and ``sd``, each
    gathered chunk is first z-normalized in place by ``-= mean`` and
    ``/= sd``, as :func:`znormalize` does, so the means of a split's raw
    rows have the bits of the means of its rows z-normalized one by one.
    """
    out = np.empty((x.shape[0], seg.m))
    step = max(1, _CHUNK_VALUES // seg.n_effective)
    for i0 in range(0, x.shape[0], step):
        g = x[i0:i0 + step, seg.blocks.T]
        if mean is not None:
            g -= mean[i0:i0 + step, :, None]
            g /= sd[i0:i0 + step, :, None]
        total = out[i0:i0 + step]
        np.copyto(total, g[:, 0])
        for k in range(1, seg.w):
            total += g[:, k]
        total /= seg.w
        del g  # so the next chunk is gathered with this one freed
    out.flags.writeable = False
    return out


def _symbols(means: np.ndarray, table: AlphabetTable) -> np.ndarray:
    """Each mean's symbol under ``table``, the number of its breakpoints strictly below it, a new int64 array.

    Up to ``_SEARCH_MEANS`` means, a word's or a bound audit's, take
    ``np.searchsorted``, the faster up to about 1,000 means.  More, a
    split's, are counted ``means > b`` per breakpoint into uint8, which at
    most ``MAX_ALPHABET - 1`` breakpoints cannot overflow; the count is the
    faster from about 2,000 means.  The result is writable: ``np.take``
    copies a read-only index first, and ``distance._nearest`` gathers by
    it.  A caller that keeps it, a word or a model, makes it read-only.
    """
    if means.size <= _SEARCH_MEANS:
        return np.searchsorted(table.breakpoints, means, side="left").astype(np.int64, copy=False)
    count = np.zeros(means.shape, dtype=np.uint8)
    for b in table.breakpoints:
        count += means > b
    return count.astype(np.int64)


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
_Q_P_LOW = 0.02425
_SQRT_2PI = math.sqrt(2.0 * math.pi)


def gaussian_quantile(p: float) -> float:
    """Inverse CDF of the standard normal distribution.

    p above one half reflects through the lower half (1 - p is exact
    there), so exactly complementary probabilities give exactly opposite
    results.  The tails, p below ``_Q_P_LOW``, take the ``statistics``
    module's normal inverse CDF.  The centre alone makes alphabet tables'
    breakpoints (p = i/α lies in [1/26, 0.48]), and stays a rational
    approximation sharpened by one Newton step against the erfc-based
    CDF: the standard library differs in the last bits of most
    breakpoints, which the recorded report digests pin.
    """
    p = float(p)
    if not 0.0 < p < 1.0:
        raise ValueError("quantile probability must lie strictly between 0 and 1")
    if p > 0.5:
        return -gaussian_quantile(1.0 - p)
    if p < _Q_P_LOW:
        # imported here, not at the top: statistics takes 3-5 ms to import and no alphabet table reaches the tail
        import statistics
        return statistics.NormalDist().inv_cdf(p)
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

    ``AlphabetTable(breakpoints, pair_dist)``.  ``breakpoints`` holds the
    interval boundaries in increasing order; construction sets
    ``alphabet_size`` to their count plus one.  ``pair_dist[i, j]`` is the
    distance charged for symbols ``i`` and ``j``: zero when they are equal
    or adjacent, and the gap between the breakpoints just inside them
    otherwise.  Construction enforces the structural invariants (shapes,
    ordering, symmetry, the zero band next to the diagonal) so any
    instance can be used safely.  It also enforces the precondition of the
    float32 1NN filter, ``distance._nearest``: every entry is finite, and
    every nonzero float64 square of one lies within float32's normal
    range.  Tables built by :func:`make_alphabet_table` additionally
    satisfy the Gaussian equal-probability layout.  Construction keeps
    the squared table, ``_sq``, and its float32 copy, ``_sq32``, for the
    word distances; all four arrays are read-only (see ``_read_only``).
    """

    breakpoints: np.ndarray
    pair_dist: np.ndarray
    alphabet_size: int = field(init=False)
    _sq: np.ndarray = field(init=False, repr=False)
    _sq32: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        bp = np.asarray(self.breakpoints, dtype=np.float64)
        if bp.ndim != 1 or not np.isfinite(bp).all() or (np.diff(bp) <= 0).any():
            raise ValueError("breakpoints must be one-dimensional, finite and strictly increasing")
        alpha = _alphabet_size(bp.size + 1)
        pd = np.asarray(self.pair_dist, dtype=np.float64)
        if pd.shape != (alpha, alpha):
            raise ValueError(f"pair_dist must be {alpha}x{alpha}, got {pd.shape}")
        if (pd < 0).any() or not np.array_equal(pd, pd.T):
            raise ValueError("pair_dist must be symmetric and non-negative")
        idx = np.arange(alpha)
        near = np.abs(idx[:, None] - idx[None, :]) <= 1
        if pd[near].any():
            raise ValueError("pair_dist must be zero for equal and adjacent symbols")
        with np.errstate(over="ignore"):
            sq = pd * pd
        f32 = np.finfo(np.float32)
        if ((sq != 0) & ((sq < f32.tiny) | (sq > f32.max))).any():
            raise ValueError("pair_dist must be finite, and every nonzero entry must square to a normal float32")
        object.__setattr__(self, "alphabet_size", alpha)
        object.__setattr__(self, "breakpoints", _read_only(bp, self.breakpoints))
        object.__setattr__(self, "pair_dist", _read_only(pd, self.pair_dist))
        sq32 = sq.astype(np.float32)
        sq.flags.writeable = sq32.flags.writeable = False
        object.__setattr__(self, "_sq", sq)
        object.__setattr__(self, "_sq32", sq32)


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
    bp.flags.writeable = pair.flags.writeable = False
    return AlphabetTable(bp, pair)


def make_alphabet_table(alphabet_size: int) -> AlphabetTable:
    """Build the lookup table for an alphabet of ``alphabet_size`` symbols.

    Breakpoints are the standard-normal quantiles at cumulative
    probabilities ``i / alphabet_size``, which makes every symbol equally
    likely under a z-normalized Gaussian series.  Valid sizes are 2..26.
    """
    return _build_table(_alphabet_size(alphabet_size))


@dataclass(frozen=True, eq=False)
class PaaVector:
    """Block means of a series: ``means[i]`` averages the points of block ``i``.

    ``source_length`` is the number of source points covered by the
    segmentation (``m * w``); it feeds the length compensation factor of
    the word distance.  ``means`` is read-only (see ``_read_only``).
    """

    means: np.ndarray
    source_length: int
    m: int = field(init=False)

    def __post_init__(self) -> None:
        means = _as_series(self.means, "means")
        object.__setattr__(self, "source_length", _source_length(self.source_length, means.size))
        object.__setattr__(self, "means", _read_only(means, self.means))
        object.__setattr__(self, "m", means.size)


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
    return PaaVector(_block_means(x[None], seg)[0], seg.n_effective)


@dataclass(frozen=True, eq=False)
class SaxWord:
    """A series reduced to symbol indices, one per block; ``symbols`` is read-only (see ``_read_only``)."""

    symbols: np.ndarray
    alphabet_size: int
    source_length: int
    m: int = field(init=False)

    def __post_init__(self) -> None:
        syms = _as_integers(self.symbols, "symbols")
        if syms.ndim != 1 or syms.size == 0:
            raise ValueError("symbols must be a non-empty one-dimensional sequence")
        object.__setattr__(self, "alphabet_size", _alphabet_size(self.alphabet_size))
        if syms.min() < 0 or syms.max() >= self.alphabet_size:
            raise ValueError("symbol indices must lie in [0, alphabet_size)")
        object.__setattr__(self, "source_length", _source_length(self.source_length, syms.size))
        object.__setattr__(self, "symbols", _read_only(syms, self.symbols))
        object.__setattr__(self, "m", syms.size)

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
    symbols = _symbols(vector.means, table)
    symbols.flags.writeable = False  # kept by the word as it is, not copied
    return SaxWord(symbols, table.alphabet_size, vector.source_length)
