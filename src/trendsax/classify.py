"""1NN classification in word space with alphabet tuning on the training split.

The protocol: pick the alphabet size that minimizes leave-one-out 1NN
error on the training set, then classify every test instance against the
full training set with that alphabet.  All tie-breaks are deterministic
(first training index for neighbours, smallest size for alphabets), so a
given configuration always produces the same report.  The series come in
as ``dataset.LabeledDataset``; ``nn1``, leave-one-out and test scoring
find neighbours with ``distance._nearest``.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from dataclasses import dataclass, field

import numpy as np

from trendsax import distance
from trendsax.core import MAX_ALPHABET, AlphabetTable, SaxWord, _as_integers, _symbols, make_alphabet_table
from trendsax.dataset import LabeledDataset
from trendsax.distance import _check_compatible, _nearest, _one_hot
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


class _TrainingWords(Sequence):
    """Training words stored as symbol rows: a read-only (N, m) int64 array and N labels.

    Indexing and iteration build ``(SaxWord, label)`` pairs on demand.
    ``m``, ``alphabet_size`` and ``source_length`` hold for every word, so
    ``_check_compatible`` checks a query against all the rows at once as
    it would against one word.  ``one_hot`` is the rows' float32 one-hot
    for ``distance._nearest``, built on first use and then kept.
    """

    __slots__ = ("rows", "labels", "alphabet_size", "source_length", "_hot")

    def __init__(self, rows: np.ndarray, labels: np.ndarray, alphabet_size: int, source_length: int) -> None:
        rows.flags.writeable = labels.flags.writeable = False
        self.rows, self.labels = rows, labels
        self.alphabet_size, self.source_length = alphabet_size, source_length
        self._hot = None

    @property
    def one_hot(self) -> np.ndarray:
        if self._hot is None:
            self._hot = _one_hot(self.rows, self.alphabet_size)
            self._hot.flags.writeable = False
        return self._hot

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
    per-word check, and with their float32 one-hot (N × m·α values),
    built on the first ``nn1`` call and kept with the rows.  Rows given
    here are checked once against ``table``; any other sequence of pairs
    is checked word by word and stored as rows the same way.  Construction sets ``m`` from the words and
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
    and ``table``: word length, alphabet size and source length.  The
    filter of leave-one-out and test scoring, ``distance._nearest``,
    finds the neighbour; a model's one-hot for it is built on the first
    query and kept.  Equal distances resolve to the smallest training
    index.
    """
    train_words = _fitted_words(train_words, table)
    _check_compatible(query, train_words, table)
    nearest = _nearest(query.symbols[None], train_words.rows, table, h=train_words.one_hot)
    return int(train_words.labels[nearest[0]])


def _loocv_from_rows(rows: np.ndarray, labels: np.ndarray, table: AlphabetTable) -> float:
    predicted = labels[_nearest(rows, rows, table, leave_one_out=True)]
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
    means = train._means(seg)
    tables = [make_alphabet_table(alpha) for alpha in alphas]
    errors = [_loocv_from_rows(_symbols(means, table), train.labels, table) for table in tables]
    best = errors.index(min(errors))
    rows = _symbols(means, tables[best])
    words = _TrainingWords(rows, train.labels, alphas[best], seg.n_effective)
    return TunedModel(scheme, words, tables[best]), errors[best]


def tune_alphabet(train: LabeledDataset, scheme: str, m: int,
                  alphabet_range: Iterable[int] = DEFAULT_ALPHABET_RANGE) -> TunedModel:
    """Pick the alphabet size minimizing leave-one-out error on ``train``.

    The sweep shares one aggregation pass, ``LabeledDataset._means``,
    across all candidate sizes, takes each size's symbols from it and
    resolves ties toward the smallest alphabet.
    """
    return _tune(train, scheme, m, alphabet_range)[0]


def evaluate(train: LabeledDataset, test: LabeledDataset, scheme: str, m: int,
             alphabet_range: Iterable[int] = DEFAULT_ALPHABET_RANGE,
             dataset: str = "") -> EvaluationReport:
    """Tune on the training split, then score 1NN accuracy on the test split.

    Each split is held once, as its raw rows and their row statistics;
    ``LabeledDataset._means`` gives the z-normalized block means of a row
    range.  The test split is scored by ``_evaluate``, in row chunks, so
    its z-normalized values, means and symbols are never held whole.
    """
    if train.n != test.n:
        raise ValueError(f"train and test series lengths differ: {train.n} vs {test.n}")
    [report] = _evaluate(train, [test], [scheme], m, alphabet_range, dataset)
    return report


def _evaluate(train: LabeledDataset, test_blocks: Iterable[LabeledDataset], schemes: Sequence[str], m: int,
              alphabet_range: Iterable[int], dataset: str) -> list[EvaluationReport]:
    """``evaluate``'s report under each of ``schemes``, with the test split given as row blocks of ``train``'s length.

    Every scheme is tuned on ``train`` first.  Then each block is scored
    under every tuned model before the next block is taken, so blocks
    read as they are asked for are read once for all schemes.  A block is
    scored in row chunks of ``distance._CHUNK_BUDGET // m`` rows: block
    means, symbols and nearest training rows, one chunk at a time.
    ``_nearest`` builds a model's one-hot on each call: kept, every
    model's would be held at once.
    """
    tuned = [(_tune(train, scheme, m, alphabet_range), segment(scheme, train.n, m)) for scheme in schemes]
    misclassified = [0] * len(tuned)
    total = 0
    for block in test_blocks:
        total += len(block)
        for k, ((model, _), seg) in enumerate(tuned):
            words, table = model.train_words, model.table
            step = max(1, distance._CHUNK_BUDGET // seg.m)
            for i0 in range(0, len(block), step):
                rows = slice(i0, i0 + step)
                # one expression, so a chunk's symbols are freed before the next chunk's means are taken
                nearest = _nearest(_symbols(block._means(seg, rows), table), words.rows, table)
                misclassified[k] += int((words.labels[nearest] != block.labels[rows]).sum())
        del block  # so a block read as it is asked for is freed before the next is read
    return [
        EvaluationReport(dataset=dataset, scheme=scheme, alpha=model.alphabet_size, m=seg.m,
                         train_error=train_error, test_error=wrong / total, misclassified=wrong, total=total)
        for scheme, ((model, train_error), seg), wrong in zip(schemes, tuned, misclassified)
    ]
