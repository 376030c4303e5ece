"""Index partitions feeding piecewise aggregation.

A segmentation splits the first ``n_effective = m * w`` indices of a
series of length ``n`` into ``m`` blocks of exactly ``w = n // m``
indices each; the trailing ``n - m * w`` indices are dropped.  Block means
stay plain averages of ``w`` points no matter how the indices are laid
out, so any exact partition keeps the word distance a lower bound of the
raw Euclidean distance.  Four layouts are supported; for a series of 16
points and 4 blocks they look like this:

    classic     {0,1,2,3}   {4,5,6,7}   {8,9,10,11}   {12,13,14,15}
    overlap     {0,1,2,4}   {3,5,6,8}   {7,9,10,12}   {11,13,14,15}
    intertwine  {0,2,4,6}   {1,3,5,7}   {8,10,12,14}  {9,11,13,15}
    split       {0,1,4,5}   {2,3,6,7}   {8,9,12,13}   {10,11,14,15}

Each layout is a fixed permutation of the classic one,
``arange(m*w).reshape(m, w)``:

* ``classic`` is the identity, and so is every scheme when ``w == 1`` or
  ``m == 1``.
* ``overlap`` swaps ``blocks[i, -1]`` with ``blocks[i+1, 0]``, so every
  block reaches one point into each neighbour.
* ``intertwine`` and ``split`` deal the ``2w``-point span of each block
  pair to its two blocks in alternating runs of ``r`` indices, ``r = 1``
  and ``r = 2`` respectively; the last ``2 * (w mod r)`` indices of the
  span alternate singly.  An odd last block keeps its contiguous run.

Mixing values over a span of ``2w`` points captures local trend that
contiguous averaging erases.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from trendsax.core import _as_integers

__all__ = ["SCHEMES", "Segmentation", "segment"]

SCHEMES = ("classic", "overlap", "intertwine", "split")


def _check_scheme(scheme: str) -> None:
    if scheme not in SCHEMES:
        raise ValueError(f"unknown scheme {scheme!r}; expected one of {SCHEMES}")


@dataclass(frozen=True, eq=False)
class Segmentation:
    """An exact partition of ``{0, ..., n_effective - 1}`` into equal blocks.

    ``Segmentation(scheme, blocks)``.  ``blocks`` is an ``(m, w)`` integer
    array; each row holds the sorted source indices averaged into one
    coefficient.  Its shape sets the attributes ``m``, ``w`` and
    ``n_effective = m * w`` on construction.  Rows are canonicalized to
    ascending order and the partition property is enforced, so a
    constructed instance is always safe to feed to the aggregation and
    distance routines.
    """

    scheme: str
    blocks: np.ndarray
    m: int = field(init=False)
    w: int = field(init=False)
    n_effective: int = field(init=False)

    def __post_init__(self) -> None:
        _check_scheme(self.scheme)
        blocks = np.asarray(self.blocks, dtype=np.int64)
        if blocks.ndim != 2 or blocks.size == 0:
            raise ValueError(f"blocks must be a non-empty (m, w) array, got shape {blocks.shape}")
        blocks = np.sort(blocks, axis=1)
        if not np.array_equal(np.sort(blocks, axis=None), np.arange(blocks.size)):
            raise ValueError("blocks do not partition the index range exactly")
        blocks.flags.writeable = False
        object.__setattr__(self, "blocks", blocks)
        object.__setattr__(self, "m", blocks.shape[0])
        object.__setattr__(self, "w", blocks.shape[1])
        object.__setattr__(self, "n_effective", blocks.size)


# run length in which the paired schemes deal a block pair's span
_RUN_LENGTH = {"intertwine": 1, "split": 2}


@lru_cache(maxsize=256)
def _build(scheme: str, n: int, m: int) -> Segmentation:
    w = n // m
    blocks = np.arange(m * w, dtype=np.int64).reshape(m, w)
    if scheme == "overlap" and w > 1:
        blocks[:-1, -1], blocks[1:, 0] = blocks[1:, 0].copy(), blocks[:-1, -1].copy()
    elif scheme in _RUN_LENGTH:
        # runs alternate between the pair's blocks; when w is odd under runs
        # of two, the first block's extra index (2w - 1) spills into the
        # second, so the span's last two indices alternate singly
        owner = np.arange(2 * w) // _RUN_LENGTH[scheme] % 2
        dealt = np.argsort(owner, kind="stable").reshape(2, w)
        paired = m // 2 * 2
        blocks[:paired] = (blocks[:paired:2, :1, None] + dealt).reshape(paired, w)
    return Segmentation(scheme, blocks)


def segment(scheme: str, n: int, m: int) -> Segmentation:
    """Build the index partition for ``scheme`` over a series of length ``n``.

    Parameters
    ----------
    scheme : one of ``SCHEMES``
    n : length of the source series, integral
    m : number of blocks, integral, ``1 <= m <= n``

    Returns
    -------
    Segmentation of the first ``m * w`` indices into ``m`` blocks of
    ``w = n // m``; the trailing ``n - m * w`` indices are dropped.
    """
    # ints are taken as they are: the numpy cast would double a call's cost
    if type(n) is not int or type(m) is not int:
        n, m = _as_integers((n, m), "n and m").tolist()
    if m < 1:
        raise ValueError("m must be at least 1")
    if m > n:
        raise ValueError(f"m={m} exceeds series length {n}")
    return _build(scheme, n, m)
