"""Distances: Euclidean on raw series, lookup-table distance on words, bound audit.

The word distance is sqrt(n/m) * sqrt(sum of squared pair-table entries)
over aligned symbols.  For words produced by any exact-partition
segmentation of z-normalized series it never exceeds the Euclidean
distance between the raw series, so pruning with it cannot cause false
dismissals.  ``verify_lower_bound`` packages that check as a library
operation for auditing a configuration on concrete data.  ``_nearest``,
the float32 filter behind ``nn1``, leave-one-out and test scoring, sits beside
``_dist_sq``, the exact sum whose order its error bound assumes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from trendsax.core import (AlphabetTable, SaxWord, _as_series, _block_means, _symbols,
                           make_alphabet_table)
from trendsax.segmentation import segment

__all__ = ["LOWER_BOUND_TOLERANCE", "LowerBoundReport", "euclidean", "mindist", "verify_lower_bound"]

# absorbs floating-point accumulation; the bound is exact in real arithmetic
LOWER_BOUND_TOLERANCE = 1e-9

# values held at once per row chunk of 1NN scoring; see ``_nearest``
_CHUNK_BUDGET = 2**18


def euclidean(s, t) -> float:
    """Euclidean distance between two equal-length series."""
    x = np.asarray(s, dtype=np.float64)
    y = np.asarray(t, dtype=np.float64)
    if x.shape != y.shape or x.ndim != 1:
        raise ValueError(f"series must be one-dimensional and equal length, got {x.shape} and {y.shape}")
    d = x - y
    return float(np.sqrt((d * d).sum()))


def _dist_sq(a: np.ndarray, b: np.ndarray, sq_pair: np.ndarray) -> np.ndarray:
    """Squared word distances (without the n/m factor) between broadcastable symbol rows.

    The one definition of a word distance: the m squared table entries of
    each pair, gathered by one flat index, added left to right from the
    first position by ``cumsum`` along the last axis (``sum`` would add
    pairwise and change the last bits).  ``a`` (..., m) and ``b`` (..., m)
    give the broadcast shape without the last axis.
    """
    return np.cumsum(sq_pair.ravel()[a * sq_pair.shape[0] + b], axis=-1)[..., -1]


def _gamma(n: int, unit: float) -> float:
    """Higham's gamma_n = n·u / (1 − n·u): the relative error of n roundings."""
    return n * unit / (1 - n * unit)


def _one_hot(b: np.ndarray, alpha: int) -> np.ndarray:
    """The float32 one-hot of symbol rows ``b`` (N, m): ``H[j, k·α + t]`` is 1 where ``b[j, k] == t``."""
    return np.take(np.eye(alpha, dtype=np.float32), b, axis=0).reshape(b.shape[0], -1)


def _nearest(a: np.ndarray, b: np.ndarray, table: AlphabetTable, leave_one_out: bool = False,
             h: np.ndarray | None = None) -> np.ndarray:
    """Index of each ``a`` row's nearest ``b`` row by ``_dist_sq`` over ``table``, ties to the first index.

    Filter and refine (GEMINI, Faloutsos et al., SIGMOD 1994).  The filter
    scores a row chunk against every ``b`` row in one float32 matrix
    product ``P = E @ H.T``: ``E[i, k·α + t] = table._sq[a_ik, t]`` and ``H``
    is ``_one_hot(b)``, so ``P[i, j]`` is the sum of the same m entries as
    ``_dist_sq``.  Every term is non-negative, so (Higham, *Accuracy and
    Stability of Numerical Algorithms*, 2nd ed., §3.1) ``P`` lies within
    gamma_{K+1} (float32 unit, K = m·α: one rounding of each entry to
    float32 and K additions, in any order) of the real sum, and the exact
    float64 left-to-right sum within gamma_m (float64 unit).  A column can
    then hold a row's exact minimum only if its ``P`` is at most
    ``P_min·(1+γ_m)(1+γ_{K+1})/((1−γ_m)(1−γ_{K+1}))``, rounded up.  The
    bound needs a classical summation: OpenBLAS sgemm adds the products of
    each element in some order, with no Strassen-like scheme.  Every column
    that could hold a row's exact minimum is kept, so a row that keeps one
    column has its exact minimum, and its first-index answer, at its
    ``P_min``: the bound decides that row.  It also decides a row whose
    ``P_min`` is 0: every term is 0 or a normal float32 (the precondition
    below), so a ``P`` is 0 only when every term is, its columns at 0 are
    exact zeros, and the first of them is its answer.
    The refine step writes the ``_dist_sq`` of every other row's kept pairs
    into a (tied rows, N_b) float64 matrix that starts at +inf, and its
    ``argmin`` along each row, the first exact minimum, decides them.
    ``E`` is gathered with ``np.take`` from the float32 table ``table._sq32``.
    ``h`` is ``H`` when the caller holds it (a tuned model builds it once
    for all its ``nn1`` queries); it is built here when not given, as
    test scoring leaves it, so that the models it scores together hold
    one at a time.
    ``leave_one_out`` scores ``a`` against itself (``b is a``) without the
    diagonal.  A row chunk holds about ``_CHUNK_BUDGET`` values of ``E``,
    of ``P`` and of the refine matrix, and the refine step gathers its
    pairs in smaller chunks, so those stay bounded however many rows
    either side has.  ``H`` is not chunked: it is held whole, N_b × m·α
    float32 values, so the filter's memory grows with the ``b`` rows and
    with α (54.2 MB for 1,000 rows of m = 677 at α = 20).
    Precondition: every nonzero squared entry rounds to a normal float32,
    or the float32 error bound fails.  ``AlphabetTable`` makes that an
    invariant of every table, so any table may come here.
    """
    alpha, (n_b, m) = table.alphabet_size, b.shape
    width = m * alpha
    g64, g32 = _gamma(m, 2.0**-53), _gamma(width + 1, 2.0**-24)
    ratio = np.float64((1 + g64) * (1 + g32) / ((1 - g64) * (1 - g32)))
    if h is None:
        h = _one_hot(b, alpha)
    arg = np.empty(a.shape[0], dtype=np.int64)
    step = max(1, _CHUNK_BUDGET // max(width, n_b))
    # the refine step holds several int64 and float64 arrays of pairs x m values
    pairs = max(1, _CHUNK_BUDGET // (8 * m))
    for i0 in range(0, a.shape[0], step):
        i1 = min(i0 + step, a.shape[0])
        chunk = np.arange(i1 - i0)
        p = np.take(table._sq32, a[i0:i1], axis=0).reshape(i1 - i0, width) @ h.T
        if leave_one_out:
            p[chunk, chunk + i0] = np.inf
        first = p.argmin(axis=1)
        arg[i0:i1] = first
        p_min = p[chunk, first][:, None]
        # rounding the float64 product to float32 and then one step up lands above the real limit
        keep = p <= np.nextafter(np.multiply(p_min, ratio, dtype=np.float64).astype(np.float32), np.float32(np.inf))
        if np.count_nonzero(keep) == chunk.size:
            continue  # every row keeps one column
        # a row that keeps one column, or whose minimum is 0, has its exact minimum at its first P_min
        tied = np.flatnonzero((np.count_nonzero(keep, axis=1) > 1) & (p_min[:, 0] > 0))
        rows, cols = np.nonzero(keep[tied])
        d2 = np.full((tied.size, n_b), np.inf)
        for k0 in range(0, rows.size, pairs):
            k = slice(k0, k0 + pairs)
            d2[rows[k], cols[k]] = _dist_sq(a[i0 + tied[rows[k]]], b[cols[k]], table._sq)
        arg[i0 + tied] = d2.argmin(axis=1)
    return arg


def _check_compatible(s: SaxWord, t: SaxWord, table: AlphabetTable) -> None:
    if s.m != t.m:
        raise ValueError(f"word lengths differ: {s.m} vs {t.m}")
    if s.alphabet_size != t.alphabet_size or s.alphabet_size != table.alphabet_size:
        raise ValueError(
            f"alphabet sizes differ: words {s.alphabet_size}/{t.alphabet_size}, "
            f"table {table.alphabet_size}"
        )
    if s.source_length != t.source_length:
        raise ValueError(f"source lengths differ: {s.source_length} vs {t.source_length}")


def _word_distance(a: np.ndarray, b: np.ndarray, table: AlphabetTable, source_length: int) -> float:
    """sqrt(n/m) * sqrt(squared distance) between two symbol rows of length m."""
    d2 = _dist_sq(a, b, table._sq)
    return math.sqrt(source_length / a.size) * math.sqrt(d2)


def mindist(s: SaxWord, t: SaxWord, table: AlphabetTable) -> float:
    """Lower-bounding distance between two words over the same alphabet.

    Symmetric and non-negative; zero whenever every aligned symbol pair is
    equal or adjacent.
    """
    _check_compatible(s, t, table)
    return _word_distance(s.symbols, t.symbols, table, s.source_length)


@dataclass(frozen=True)
class LowerBoundReport:
    """Outcome of one lower-bound audit on a concrete pair.

    ``LowerBoundReport(mindist, euclidean)``.  Construction sets ``holds``,
    whether ``mindist <= euclidean + LOWER_BOUND_TOLERANCE``, and
    ``slack``, the remaining gap ``euclidean - mindist``.
    """

    mindist: float
    euclidean: float
    holds: bool = field(init=False)
    slack: float = field(init=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "holds", self.mindist <= self.euclidean + LOWER_BOUND_TOLERANCE)
        object.__setattr__(self, "slack", self.euclidean - self.mindist)


def verify_lower_bound(
    s,
    t,
    scheme: str,
    m: int,
    alphabet_size: int,
) -> LowerBoundReport:
    """Check the word distance against the raw Euclidean distance for one pair.

    Intended for z-normalized equal-length inputs; both series go through
    the same segmentation and alphabet.
    """
    ed = euclidean(s, t)  # checks the pair first
    seg = segment(scheme, len(s), m)
    table = make_alphabet_table(alphabet_size)
    # s and t as two rows of one array (euclidean checked the shapes): the same means, symbols and distance as words
    rows = _symbols(_block_means(_as_series(np.concatenate((s, t))).reshape(2, -1), seg), table)
    return LowerBoundReport(_word_distance(rows[0], rows[1], table, seg.n_effective), ed)
