"""1NN classification in word space with alphabet tuning on the training split.

The protocol: pick the alphabet size that minimizes leave-one-out 1NN
error on the training set, then classify every test instance against the
full training set with that alphabet.  All tie-breaks are deterministic
(first training index for neighbours, smallest size for alphabets), so a
given configuration always produces the same report.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from trendsax import core
from trendsax.core import (MAX_ALPHABET, AlphabetTable, SaxWord, _as_integers, _block_means, _read_only,
                           _symbol_matrices, _symbol_matrix, make_alphabet_table)
from trendsax.distance import _check_compatible, _dist_sq
from trendsax.segmentation import _check_scheme, segment

__all__ = [
    "DEFAULT_ALPHABET_RANGE",
    "EvaluationReport",
    "LabeledDataset",
    "TunedModel",
    "evaluate",
    "loocv_error",
    "nn1",
    "tune_alphabet",
]

# alphabet sizes swept when tuning unless the caller narrows the range
DEFAULT_ALPHABET_RANGE = range(3, 21)

# values held at once per row chunk of 1NN scoring; see ``_nearest``
_CHUNK_BUDGET = 2**18


@dataclass(frozen=True, eq=False)
class LabeledDataset:
    """Uniform-length labeled series: ``series`` is (N, n), ``labels`` is (N,), both read-only."""

    series: np.ndarray
    labels: np.ndarray

    def __post_init__(self) -> None:
        series = np.asarray(self.series, dtype=np.float64)
        labels = _as_integers(self.labels, "labels")
        if series.ndim != 2 or series.shape[0] == 0 or series.shape[1] == 0:
            raise ValueError("series must be a non-empty (N, n) array")
        if not np.isfinite(series).all():
            raise ValueError("series contain non-finite values")
        if labels.shape != (series.shape[0],):
            raise ValueError("labels must be one integer per series")
        object.__setattr__(self, "series", _read_only(series, self.series))
        object.__setattr__(self, "labels", _read_only(labels, self.labels))

    @classmethod
    def from_instances(cls, instances: Iterable[tuple[Sequence[float], int]]) -> "LabeledDataset":
        pairs = list(instances)
        if not pairs:
            raise ValueError("dataset must contain at least one instance")
        return cls([s for s, _ in pairs], [label for _, label in pairs])

    def __len__(self) -> int:
        return self.series.shape[0]

    @property
    def n(self) -> int:
        """Series length."""
        return self.series.shape[1]

    @cached_property
    def _zrows(self) -> np.ndarray:
        """The z-normalized rows, computed once on first use and shared by every scheme."""
        z = core._znormalize_rows(self.series)
        z.flags.writeable = False
        return z


class _TrainingWords(Sequence):
    """Training words stored as symbol rows: a read-only (N, m) int64 array and N labels.

    Indexing and iteration build ``(SaxWord, label)`` pairs on demand.
    ``m``, ``alphabet_size`` and ``source_length`` hold for every word, so
    ``_check_compatible`` checks a query against all the rows at once as
    it would against one word.
    """

    __slots__ = ("rows", "labels", "alphabet_size", "source_length")

    def __init__(self, rows: np.ndarray, labels: np.ndarray, alphabet_size: int, source_length: int) -> None:
        rows.flags.writeable = labels.flags.writeable = False
        self.rows, self.labels = rows, labels
        self.alphabet_size, self.source_length = alphabet_size, source_length

    @property
    def m(self) -> int:
        return self.rows.shape[1]

    def __len__(self) -> int:
        return self.labels.size

    def __getitem__(self, i):
        if isinstance(i, slice):
            return tuple(self[j] for j in range(*i.indices(len(self))))
        return SaxWord(self.rows[i], self.alphabet_size, self.source_length), int(self.labels[i])


def _fitted_words(train_words: Iterable[tuple[SaxWord, int]], table: AlphabetTable) -> _TrainingWords:
    """``train_words`` as rows that fit ``table``: stored rows checked once, outside pairs word by word."""
    if isinstance(train_words, _TrainingWords):
        _check_compatible(train_words, train_words, table)
        return train_words
    pairs = list(train_words)
    if not pairs:
        raise ValueError("training set is empty")
    first = pairs[0][0]
    for word, _ in pairs:
        _check_compatible(first, word, table)
    rows = np.stack([word.symbols for word, _ in pairs])
    labels = np.array([label for _, label in pairs], dtype=np.int64)
    return _TrainingWords(rows, labels, first.alphabet_size, first.source_length)


@dataclass(frozen=True, eq=False)
class TunedModel:
    """A trained configuration: the chosen alphabet and the training words.

    ``TunedModel(scheme, train_words, table)``.  ``train_words`` is stored
    as the training symbol rows (read-only (N, m) int64) and their labels,
    and reads as a sequence of ``(SaxWord, label)`` pairs built on demand.
    ``nn1`` scores those rows as they are, with no stacking and no
    per-word check.  Rows given here are checked once against ``table``;
    any other sequence of pairs is checked word by word and stored as rows
    the same way.  Construction sets ``m`` from the words and
    ``alphabet_size`` from ``table``.
    """

    scheme: str
    train_words: Sequence[tuple[SaxWord, int]]
    table: AlphabetTable
    m: int = field(init=False)
    alphabet_size: int = field(init=False)

    def __post_init__(self) -> None:
        _check_scheme(self.scheme)
        object.__setattr__(self, "train_words", _fitted_words(self.train_words, self.table))
        object.__setattr__(self, "m", self.train_words.m)
        object.__setattr__(self, "alphabet_size", self.table.alphabet_size)


@dataclass(frozen=True)
class EvaluationReport:
    """Train/test outcome for one dataset under one scheme."""

    dataset: str
    scheme: str
    alpha: int
    m: int
    train_error: float
    test_error: float
    misclassified: int
    total: int


def nn1(query: SaxWord, train_words: Sequence[tuple[SaxWord, int]], table: AlphabetTable) -> int:
    """Label of the training word closest to ``query``.

    ``train_words`` is either a ``TunedModel.train_words``, whose rows are
    checked once against ``table`` and scored as they are, or any other
    sequence of ``(SaxWord, label)`` pairs, which is checked word by word
    and stacked once.  The query is then checked once against the rows
    and ``table``: word length, alphabet size and source length.  Equal
    distances resolve to the smallest training index.
    """
    train_words = _fitted_words(train_words, table)
    _check_compatible(query, train_words, table)
    d2 = _dist_sq(query.symbols, train_words.rows, table.pair_dist**2)
    return int(train_words.labels[int(np.argmin(d2))])


def _gamma(n: int, unit: float) -> float:
    """Higham's gamma_n = n·u / (1 − n·u): the relative error of n roundings."""
    return n * unit / (1 - n * unit)


def _nearest(a: np.ndarray, b: np.ndarray, sq_pair: np.ndarray, leave_one_out: bool = False) -> np.ndarray:
    """Index of each ``a`` row's nearest ``b`` row by ``_dist_sq``, ties to the first index.

    Filter and refine (GEMINI, Faloutsos et al., SIGMOD 1994).  The filter
    scores a row chunk against every ``b`` row in one float32 matrix
    product ``P = E @ H.T``: ``E[i, k·α + t] = sq_pair[a_ik, t]`` and ``H``
    is the one-hot of ``b``, so ``P[i, j]`` is the sum of the same m
    entries as ``_dist_sq``.  Every term is non-negative, so (Higham,
    *Accuracy and Stability of Numerical Algorithms*, 2nd ed., §3.1) ``P``
    lies within gamma_{K+1} (float32 unit, K = m·α: one rounding of each
    entry to float32 and K additions, in any order) of the real sum, and
    the exact float64 left-to-right sum within gamma_m (float64 unit).  A
    column can then hold a row's exact minimum only if its ``P`` is at most
    ``P_min·(1+γ_m)(1+γ_{K+1})/((1−γ_m)(1−γ_{K+1}))``, rounded up; a row
    whose ``P_min`` is 0 keeps its exact zeros only.  The bound needs a
    classical summation: OpenBLAS sgemm adds the products of each element
    in some order, with no Strassen-like scheme.  Every column that could
    hold a row's exact minimum is kept, so a row that keeps one column has
    its exact minimum, and its first-index answer, at its ``P_min``: the
    bound decides that row.  The refine step writes the ``_dist_sq`` of
    every other row's kept pairs into a (tied rows, N_b) float64 matrix
    that starts at +inf, and its ``argmin`` along each row, the first
    exact minimum, decides them.  ``E`` and ``H`` are gathered with
    ``np.take`` from the float32 table and identity.  ``leave_one_out``
    scores ``a`` against itself (``b is a``) without the diagonal.  A row
    chunk holds about ``_CHUNK_BUDGET`` values of ``E``, of ``P`` and of
    the refine matrix, and the refine step gathers its pairs in smaller
    chunks, so memory stays bounded however many rows either side has.
    """
    alpha, (n_b, m) = sq_pair.shape[0], b.shape
    width = m * alpha
    g64, g32 = _gamma(m, 2.0**-53), _gamma(width + 1, 2.0**-24)
    ratio = np.float64((1 + g64) * (1 + g32) / ((1 - g64) * (1 - g32)))
    sq32 = sq_pair.astype(np.float32)
    h = np.take(np.eye(alpha, dtype=np.float32), b, axis=0).reshape(n_b, width)
    arg = np.empty(a.shape[0], dtype=np.int64)
    step = max(1, _CHUNK_BUDGET // max(width, n_b))
    # the refine step holds several int64 and float64 arrays of pairs x m values
    pairs = max(1, _CHUNK_BUDGET // (8 * m))
    for i0 in range(0, a.shape[0], step):
        i1 = min(i0 + step, a.shape[0])
        chunk = np.arange(i1 - i0)
        p = np.take(sq32, a[i0:i1], axis=0).reshape(i1 - i0, width) @ h.T
        if leave_one_out:
            p[chunk, chunk + i0] = np.inf
        first = p.argmin(axis=1)
        # rounding the float64 product to float32 and then one step up lands above the real limit
        limit = (p[chunk, first] * ratio).astype(np.float32)[:, None]
        np.nextafter(limit, np.float32(np.inf), out=limit, where=limit > 0)
        keep = p <= limit
        # a row that keeps one column has its exact minimum there, at its P_min
        arg[i0:i1] = first
        tied = np.flatnonzero(np.count_nonzero(keep, axis=1) > 1)
        rows, cols = np.nonzero(keep[tied])
        d2 = np.full((tied.size, n_b), np.inf)
        for k0 in range(0, rows.size, pairs):
            k = slice(k0, k0 + pairs)
            d2[rows[k], cols[k]] = _dist_sq(a[i0 + tied[rows[k]]], b[cols[k]], sq_pair)
        arg[i0 + tied] = d2.argmin(axis=1)
    return arg


def _loocv_from_rows(rows: np.ndarray, labels: np.ndarray, table: AlphabetTable) -> float:
    predicted = labels[_nearest(rows, rows, table.pair_dist**2, leave_one_out=True)]
    return int((predicted != labels).sum()) / labels.size


def loocv_error(train: LabeledDataset, scheme: str, m: int, alphabet_size: int) -> float:
    """Leave-one-out 1NN error of the training set in word space.

    Each instance is classified against all the others under the given
    scheme, word length, and alphabet; the result is the misclassified
    fraction.
    """
    return _tune(train, scheme, m, [alphabet_size])[1]


def _normalized_alphabet_range(alphabet_range: Iterable[int]) -> list[int]:
    alphas = sorted(set(_as_integers(list(alphabet_range), "alphabet sizes").tolist()))
    if not alphas:
        raise ValueError("alphabet range is empty")
    if alphas[0] < 2 or alphas[-1] > MAX_ALPHABET:
        raise ValueError(f"alphabet sizes must lie in [2, {MAX_ALPHABET}], got {alphas}")
    return alphas


def _tune(train: LabeledDataset, scheme: str, m: int,
          alphabet_range: Iterable[int]) -> tuple[TunedModel, float]:
    """Tuned model and its leave-one-out error."""
    if len(train) < 2:
        raise ValueError("tuning needs at least 2 training instances")
    alphas = _normalized_alphabet_range(alphabet_range)
    seg = segment(scheme, train.n, m)
    means = _block_means(train._zrows, seg)
    tables = [make_alphabet_table(alpha) for alpha in alphas]
    errors = [_loocv_from_rows(rows, train.labels, table)
              for table, rows in zip(tables, _symbol_matrices(means, tables))]
    best = errors.index(min(errors))
    words = _TrainingWords(_symbol_matrix(means, tables[best]), train.labels, alphas[best], seg.n_effective)
    return TunedModel(scheme, words, tables[best]), errors[best]


def tune_alphabet(train: LabeledDataset, scheme: str, m: int,
                  alphabet_range: Iterable[int] = DEFAULT_ALPHABET_RANGE) -> TunedModel:
    """Pick the alphabet size minimizing leave-one-out error on ``train``.

    The sweep shares one aggregation pass and one breakpoint search across
    all candidate sizes and resolves ties toward the smallest alphabet.
    """
    return _tune(train, scheme, m, alphabet_range)[0]


def evaluate(train: LabeledDataset, test: LabeledDataset, scheme: str, m: int,
             alphabet_range: Iterable[int] = DEFAULT_ALPHABET_RANGE,
             dataset: str = "") -> EvaluationReport:
    """Tune on the training split, then score 1NN accuracy on the test split."""
    if train.n != test.n:
        raise ValueError(f"train and test series lengths differ: {train.n} vs {test.n}")
    model, train_error = _tune(train, scheme, m, alphabet_range)
    seg = segment(scheme, test.n, m)
    test_rows = _symbol_matrix(_block_means(test._zrows, seg), model.table)
    words = model.train_words
    predicted = words.labels[_nearest(test_rows, words.rows, model.table.pair_dist**2)]
    misclassified = int((predicted != test.labels).sum())
    total = len(test)
    return EvaluationReport(
        dataset=dataset,
        scheme=scheme,
        alpha=model.alphabet_size,
        m=seg.m,
        train_error=train_error,
        test_error=misclassified / total,
        misclassified=misclassified,
        total=total,
    )
