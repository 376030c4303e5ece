"""Distances: Euclidean on raw series, lookup-table distance on words, bound audit.

The word distance is sqrt(n/m) * sqrt(sum of squared pair-table entries)
over aligned symbols.  For words produced by any exact-partition
segmentation of z-normalized series it never exceeds the Euclidean
distance between the raw series, so pruning with it cannot cause false
dismissals.  ``verify_lower_bound`` packages that check as a library
operation for auditing a configuration on concrete data.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from trendsax.core import (AlphabetTable, SaxWord, _as_series, _block_means, _symbol_matrix,
                           make_alphabet_table)
from trendsax.segmentation import segment

__all__ = ["LOWER_BOUND_TOLERANCE", "LowerBoundReport", "euclidean", "mindist", "verify_lower_bound"]

# absorbs floating-point accumulation; the bound is exact in real arithmetic
LOWER_BOUND_TOLERANCE = 1e-9


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
    d2 = _dist_sq(a, b, table.pair_dist**2)
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
    # the pair as two rows: the same block means, symbols and distance as words of s and t
    rows = _symbol_matrix(_block_means(np.stack([_as_series(s), _as_series(t)]), seg), table)
    return LowerBoundReport(_word_distance(rows[0], rows[1], table, seg.n_effective), ed)
