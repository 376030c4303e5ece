"""1NN classification in word space with alphabet tuning on the training split.

The protocol: pick the alphabet size that minimizes leave-one-out 1NN
error on the training set, then classify every test instance against the
full training set with that alphabet.  All tie-breaks are deterministic
(first training index for neighbours, smallest size for alphabets), so a
given configuration always produces the same report.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from trendsax.core import (MAX_ALPHABET, AlphabetTable, SaxWord, _block_means, _symbol_matrix,
                           _znormalized, make_alphabet_table)
from trendsax.distance import _check_compatible, _dist_sq_matrix
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

# distances held at once by 1NN scoring; see ``_nearest``
_CHUNK_BUDGET = 2**16


@dataclass(frozen=True, eq=False)
class LabeledDataset:
    """Uniform-length labeled series: ``series`` is (N, n), ``labels`` is (N,)."""

    series: np.ndarray
    labels: np.ndarray

    def __post_init__(self) -> None:
        series = np.asarray(self.series, dtype=np.float64)
        labels = np.asarray(self.labels, dtype=np.int64)
        if series.ndim != 2 or series.shape[0] == 0 or series.shape[1] == 0:
            raise ValueError("series must be a non-empty (N, n) array")
        if not np.isfinite(series).all():
            raise ValueError("series contain non-finite values")
        if labels.shape != (series.shape[0],):
            raise ValueError("labels must be one integer per series")
        series.flags.writeable = False
        labels.flags.writeable = False
        object.__setattr__(self, "series", series)
        object.__setattr__(self, "labels", labels)

    @classmethod
    def from_instances(cls, instances: Iterable[tuple[Sequence[float], int]]) -> "LabeledDataset":
        pairs = list(instances)
        if not pairs:
            raise ValueError("dataset must contain at least one instance")
        return cls(
            np.array([np.asarray(s, dtype=np.float64) for s, _ in pairs]),
            np.array([label for _, label in pairs], dtype=np.int64),
        )

    def __len__(self) -> int:
        return self.series.shape[0]

    @property
    def n(self) -> int:
        """Series length."""
        return self.series.shape[1]

    @cached_property
    def _zrows(self) -> np.ndarray:
        """The z-normalized rows, computed once on first use and shared by every scheme."""
        return _znormalized(self.series)


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


def _stack_words(train_words: Iterable[tuple[SaxWord, int]], table: AlphabetTable) -> _TrainingWords:
    """Stack outside ``(SaxWord, label)`` pairs, checking each word against the first and ``table``."""
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

    ``train_words`` is stored as the training symbol rows (read-only
    (N, m) int64) and their labels, and reads as a sequence of
    ``(SaxWord, label)`` pairs built on demand.  ``nn1`` scores those rows
    as they are, with no stacking and no per-word check.  Any other
    sequence of pairs given here is checked word by word against
    ``table`` and stored as rows the same way.  ``m`` and ``alphabet_size``
    must match the words and ``table``.
    """

    scheme: str
    m: int
    alphabet_size: int
    train_words: Sequence[tuple[SaxWord, int]]
    table: AlphabetTable

    def __post_init__(self) -> None:
        _check_scheme(self.scheme)
        if not isinstance(self.train_words, _TrainingWords):
            object.__setattr__(self, "train_words", _stack_words(self.train_words, self.table))
        if self.m != self.train_words.m:
            raise ValueError(f"m={self.m} but the training words have m={self.train_words.m}")
        if self.alphabet_size != self.table.alphabet_size:
            raise ValueError(f"alphabet_size={self.alphabet_size} but table has {self.table.alphabet_size}")


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
    scored as they are, or any other sequence of ``(SaxWord, label)``
    pairs, which is checked word by word and stacked once.  The query is
    then checked once against the rows and ``table``: word length,
    alphabet size and source length.  Equal distances resolve to the
    smallest training index.
    """
    if not isinstance(train_words, _TrainingWords):
        train_words = _stack_words(train_words, table)
    _check_compatible(query, train_words, table)
    d2 = _dist_sq_matrix(query.symbols[None, :], train_words.rows, table.pair_dist**2)[0]
    return int(train_words.labels[int(np.argmin(d2))])


def _fold(best: np.ndarray, arg: np.ndarray, d2: np.ndarray, offset: int) -> None:
    """Fold a block whose columns start at ``offset`` into the running minima."""
    j = np.argmin(d2, axis=1)
    d = d2[np.arange(j.size), j]
    better = d < best  # strict, so an earlier column keeps a tie
    best[better], arg[better] = d[better], j[better] + offset


def _nearest(a: np.ndarray, b: np.ndarray, sq_pair: np.ndarray, leave_one_out: bool = False) -> np.ndarray:
    """Index of each ``a`` row's nearest ``b`` row, ties to the first index.

    ``a`` is scored in row chunks, holding about ``_CHUNK_BUDGET`` distances
    at once instead of A x B; this is exact, as ``_dist_sq_matrix`` sums an
    element in one order whatever rows it is given.  ``leave_one_out``
    scores ``a`` (``b is a``) without the diagonal from upper-triangle
    strips only, chunk I against columns I0..N: the table is symmetric, so
    ``d2[j, i] == d2[i, j]`` bit for bit, and a strip is folded into its
    own rows and, transposed, into rows I1..N.  Every row meets its columns
    in increasing order, so this equals one ``argmin`` of the full matrix.
    """
    best = np.full(a.shape[0], np.inf)
    arg = np.zeros(a.shape[0], dtype=np.int64)
    step = max(1, _CHUNK_BUDGET // b.shape[0])
    for i0 in range(0, a.shape[0], step):
        i1 = min(i0 + step, a.shape[0])
        c0 = i0 if leave_one_out else 0
        strip = _dist_sq_matrix(a[i0:i1], b[c0:], sq_pair)
        if leave_one_out:
            np.fill_diagonal(strip, np.inf)
            _fold(best[i1:], arg[i1:], strip[:, i1 - i0:].T, i0)
        _fold(best[i0:i1], arg[i0:i1], strip, c0)
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
    alphas = sorted({int(a) for a in alphabet_range})
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
    best_alpha = None
    best_error = None
    best_rows = None
    best_table = None
    for alpha in alphas:
        table = make_alphabet_table(alpha)
        rows = _symbol_matrix(means, table)
        error = _loocv_from_rows(rows, train.labels, table)
        if best_error is None or error < best_error:
            best_alpha, best_error, best_rows, best_table = alpha, error, rows, table
    words = _TrainingWords(best_rows, train.labels, best_alpha, seg.n_effective)
    return TunedModel(scheme, m, best_alpha, words, best_table), best_error


def tune_alphabet(train: LabeledDataset, scheme: str, m: int,
                  alphabet_range: Iterable[int] = DEFAULT_ALPHABET_RANGE) -> TunedModel:
    """Pick the alphabet size minimizing leave-one-out error on ``train``.

    The sweep shares one aggregation pass across all candidate sizes and
    resolves ties toward the smallest alphabet.
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
        m=m,
        train_error=train_error,
        test_error=misclassified / total,
        misclassified=misclassified,
        total=total,
    )
