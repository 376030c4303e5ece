"""1NN classification in word space with alphabet tuning on the training split.

The protocol: pick the alphabet size that minimizes leave-one-out 1NN
error on the training set, then classify every test instance against the
full training set with that alphabet.  All tie-breaks are deterministic
(first training index for neighbours, smallest size for alphabets), so a
given configuration always produces the same report.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from trendsax.core import MAX_ALPHABET, AlphabetTable, SaxWord, _znormalize_rows, make_alphabet_table
from trendsax.distance import _check_compatible, _dist_sq_matrix
from trendsax.segmentation import Segmentation, segment

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


@dataclass(frozen=True, eq=False)
class TunedModel:
    """A trained configuration: chosen alphabet plus the training words."""

    scheme: str
    m: int
    alphabet_size: int
    train_words: tuple[tuple[SaxWord, int], ...]
    table: AlphabetTable


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

    Equal distances resolve to the smallest training index.
    """
    if len(train_words) == 0:
        raise ValueError("training set is empty")
    for word, _ in train_words:
        _check_compatible(query, word, table)
    rows = np.stack([w.symbols for w, _ in train_words])
    labels = np.array([label for _, label in train_words], dtype=np.int64)
    d2 = _dist_sq_matrix(query.symbols[None, :], rows, table.pair_dist**2)[0]
    return int(labels[int(np.argmin(d2))])


def _paa_matrix(series: np.ndarray, seg: Segmentation) -> np.ndarray:
    """Per-row z-normalization followed by block averaging; (N, m) means.

    Equal bit for bit to ``paa(znormalize(row), seg).means`` per row: the
    block means are gathered row by row, because one (N, m, w) gather
    sums its blocks in another order once ``w >= 8``.
    """
    z = _znormalize_rows(series)
    if not np.isfinite(z).all():  # the mean or std overflowed
        raise ValueError("series contains non-finite values")
    return np.stack([row[seg.blocks].mean(axis=1) for row in z])


def _symbol_matrix(means: np.ndarray, table: AlphabetTable) -> np.ndarray:
    return np.searchsorted(table.breakpoints, means, side="left").astype(np.int64)


def _loocv_from_rows(rows: np.ndarray, labels: np.ndarray, table: AlphabetTable) -> float:
    d2 = _dist_sq_matrix(rows, rows, table.pair_dist**2)
    np.fill_diagonal(d2, np.inf)
    predicted = labels[np.argmin(d2, axis=1)]
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
          alphabet_range: Iterable[int]) -> tuple[TunedModel, float, np.ndarray]:
    """Tuned model, its leave-one-out error, and the training symbol rows."""
    if len(train) < 2:
        raise ValueError("tuning needs at least 2 training instances")
    alphas = _normalized_alphabet_range(alphabet_range)
    seg = segment(scheme, train.n, m)
    means = _paa_matrix(train.series, seg)
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
    words = tuple(
        (SaxWord(row, best_alpha, seg.n_effective), int(label))
        for row, label in zip(best_rows, train.labels)
    )
    model = TunedModel(scheme, m, best_alpha, words, best_table)
    return model, best_error, best_rows


def tune_alphabet(train: LabeledDataset, scheme: str, m: int,
                  alphabet_range: Iterable[int] = DEFAULT_ALPHABET_RANGE) -> TunedModel:
    """Pick the alphabet size minimizing leave-one-out error on ``train``.

    The sweep shares one aggregation pass across all candidate sizes and
    resolves ties toward the smallest alphabet.
    """
    model, _, _ = _tune(train, scheme, m, alphabet_range)
    return model


def evaluate(train: LabeledDataset, test: LabeledDataset, scheme: str, m: int,
             alphabet_range: Iterable[int] = DEFAULT_ALPHABET_RANGE,
             dataset: str = "") -> EvaluationReport:
    """Tune on the training split, then score 1NN accuracy on the test split."""
    if train.n != test.n:
        raise ValueError(f"train and test series lengths differ: {train.n} vs {test.n}")
    model, train_error, train_rows = _tune(train, scheme, m, alphabet_range)
    seg = segment(scheme, test.n, m)
    test_rows = _symbol_matrix(_paa_matrix(test.series, seg), model.table)
    d2 = _dist_sq_matrix(test_rows, train_rows, model.table.pair_dist**2)
    predicted = train.labels[np.argmin(d2, axis=1)]
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
