r"""Labeled series: the record, loading files in the UCR text layout, finding datasets.

``LabeledDataset`` holds uniform-length series and their integer labels.
A file has one instance per line: an integer class label followed by
the series values, separated by commas or tabs (detected per file).  All
rows in a file must have the same number of values.  Labels written as
reals are accepted when they are within 1e-6 of an integer.

A line ends at ``\n``, ``\r\n`` or ``\r``, and whitespace at the edges
of a field is ignored.  numpy's C reader goes first, on the whole file
or on consecutive blocks of rows; when it refuses a block, or its table
fails a check, the line parser reads the file again and names the first
offending line.  Where both accept a file they give equal arrays.

A dataset directory holds one ``*_TRAIN*`` and one ``*_TEST*`` series
file; ``_discover_datasets`` finds such directories, or their children.
"""

from __future__ import annotations

import math
import warnings
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from pathlib import Path

import numpy as np

from trendsax import core, distance
from trendsax.core import _as_integers, _read_only
from trendsax.segmentation import Segmentation

__all__ = ["DatasetPair", "LabeledDataset", "UcrFormatError", "load_dataset_pair", "load_ucr"]

_SERIES_SUFFIXES = {"", ".txt", ".tsv", ".csv"}


@dataclass(frozen=True, eq=False)
class LabeledDataset:
    """Uniform-length labeled series: ``series`` is (N, n), ``labels`` is (N,), both read-only.

    The raw ``series`` is the only full-size array a split holds; ``_means``
    takes the z-normalized block means of any row range from it and ``_stats``.
    """

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
    def _stats(self) -> tuple[np.ndarray, np.ndarray]:
        """Each row's ``core._row_stats`` centre and scale (its mean and std unless it is constant), read-only (N, 1).

        Computed on first use.  ``_means`` z-normalizes the rows it gathers with
        them, so every scheme's block means come from ``series`` and these 2·N
        values: the split is held once, with no z-normalized copy.  numpy's
        overflow warning from a huge constant row is silenced here, once per
        split, since ``_row_stats`` maps such a row to zeros.
        """
        with np.errstate(over="ignore"):
            stats = core._row_stats(self.series)
        for a in stats:
            a.flags.writeable = False
        return stats

    def _means(self, seg: Segmentation, rows: slice = slice(None)) -> np.ndarray:
        """``core._block_means`` of ``seg`` over ``series[rows]``, z-normalized with their ``_stats``."""
        mean, sd = self._stats
        return core._block_means(self.series[rows], seg, mean[rows], sd[rows])


class UcrFormatError(ValueError):
    """A series file violates the expected layout; carries the offending line."""

    def __init__(self, path, line: int | None, message: str):
        self.path = str(path)
        self.line = line
        where = f"{self.path}:{line}" if line is not None else self.path
        super().__init__(f"{where}: {message}")


def _detect_delimiter(line: str) -> str:
    if "\t" in line:
        return "\t"
    if "," in line:
        return ","
    raise ValueError("expected comma- or tab-separated fields")


def _parse_label(token: str) -> int:
    value = float(token)
    if not math.isfinite(value):
        raise ValueError(f"label {token!r} is not finite")
    rounded = round(value)
    if abs(value - rounded) > 1e-6:
        raise ValueError(f"label {token!r} is not an integer")
    if not -(2**63) <= rounded < 2**63:
        raise ValueError(f"label {token!r} does not fit a 64-bit integer")
    return int(rounded)


def load_ucr(path) -> LabeledDataset:
    """Parse a series file into a :class:`LabeledDataset`.

    Raises :class:`UcrFormatError` naming the first offending line for any
    layout violation: empty file, undetectable delimiter, ragged rows,
    unparseable or non-finite values, non-integer labels.
    """
    path = Path(path)
    # one block holds every row: the bound lets numpy's reader allocate the
    # table once, where growing it by realloc could leave its touched old
    # copy in glibc's heap
    [data] = _read_blocks(path, _line_bound(path))
    return data


def _read_blocks(path: Path, rows: int) -> Iterator[LabeledDataset]:
    """``load_ucr(path)`` as consecutive blocks of at most ``rows`` rows, each read when it is asked for.

    The file is opened once, in text mode, whose lines end where the
    grammar's do, and ``str.strip``, the line parser's own blank-line test,
    drops its blank lines, so numpy's reader never sees one.  A block is
    numpy's C reader on the next ``rows`` lines (``_read_table``), which
    stops after its last row, so the next block starts where it ended.  When
    a block fails, or its width differs from the first block's, the line
    parser reads the whole file: it raises the error ``load_ucr`` gives, or
    gives equal rows, and the rows not yet given follow from it.
    """
    given = 0
    try:
        with path.open() as fh:
            lines = filter(str.strip, fh)
            delimiter = width = None
            while (line := next(lines, None)) is not None:
                delimiter = delimiter or _detect_delimiter(line.strip())
                block = _read_table(chain([line], lines), delimiter, rows)
                if block.n != (width or block.n):
                    raise ValueError("rows of different widths")
                width, given = block.n, given + len(block)
                yield block
                del block  # so the next block is read with this one freed
        if given:
            return
    except ValueError:
        pass
    whole = _load_lines(path)
    for i in range(given, len(whole), rows):
        yield LabeledDataset(whole.series[i:i + rows], whole.labels[i:i + rows])


def _read_table(lines, delimiter: str, rows: int) -> LabeledDataset:
    """numpy's C reader on up to ``rows`` rows of ``lines``; ValueError for any table the line parser must judge.

    A non-finite label, a label more than 1e-6 from an integer or a table
    that ``LabeledDataset`` refuses (no values, a non-finite value, a label
    outside int64) is left to the line parser.
    """
    table = np.loadtxt(lines, delimiter=delimiter, comments=None, ndmin=2, dtype=np.float64, max_rows=rows)
    labels = np.round(table[:, 0])
    # finite first: an infinite label would warn in the subtraction
    if not np.isfinite(table[:, 0]).all() or (np.abs(table[:, 0] - labels) > 1e-6).any():
        raise ValueError("outside the checked subset of the grammar")
    table.flags.writeable = False  # the dataset keeps a view of it, not a copy
    return LabeledDataset(table[:, 1:], labels)


def _line_bound(path: Path) -> int:
    """The file's ``\\n`` and ``\\r`` bytes plus one, a bound on its lines; numpy counts faster than bytes.count."""
    with path.open("rb") as fh:
        blocks = iter(lambda: fh.read(1 << 18), b"")
        return int(1 + sum(np.count_nonzero(np.frombuffer(b, np.uint8) == ord("\n"))
                           + (b.count(b"\r") if b"\r" in b else 0) for b in blocks))


def _parse_values(tokens: list[str]) -> np.ndarray:
    try:
        values = np.array([float(t) for t in tokens], dtype=np.float64)
    except ValueError:
        raise ValueError("series value is not a number") from None
    if not np.isfinite(values).all():
        raise ValueError("series contains a non-finite value")
    return values


def _load_lines(path: Path) -> LabeledDataset:
    """The line-by-line parser, which defines the grammar."""
    rows: list[np.ndarray] = []
    labels: list[int] = []
    delimiter = None
    for lineno, line in enumerate(path.read_text().split("\n"), start=1):
        line = line.strip()
        if not line:
            continue
        try:
            delimiter = delimiter or _detect_delimiter(line)
            fields = [f.strip() for f in line.split(delimiter) if f.strip()]
            if len(fields) < 2:
                raise ValueError("expected a label followed by series values")
            label = _parse_label(fields[0])
            values = _parse_values(fields[1:])
            if rows and values.size != rows[0].size:
                raise ValueError(f"row has {values.size} values, expected {rows[0].size}")
        except ValueError as exc:
            raise UcrFormatError(path, lineno, str(exc)) from None
        labels.append(label)
        rows.append(values)
    if not rows:
        raise UcrFormatError(path, None, "file contains no instances")
    return LabeledDataset(rows, labels)


@dataclass(frozen=True, eq=False)
class DatasetPair:
    """A named train/test split with matching series lengths."""

    name: str
    train: LabeledDataset
    test: LabeledDataset

    def __post_init__(self) -> None:
        _check_lengths(self.name, self.train, self.test)
        _warn_unseen(self.name, set(self.test.labels.tolist()) - set(self.train.labels.tolist()))


def _check_lengths(name: str, train: LabeledDataset, test: LabeledDataset) -> None:
    if train.n != test.n:
        raise ValueError(f"dataset {name!r}: train length {train.n} != test length {test.n}")


def _warn_unseen(name: str, unseen: set[int]) -> None:
    # a set, not np.setdiff1d, whose first call imports numpy.ma: 1.6 MB and about 20 ms
    if unseen:
        warnings.warn(f"dataset {name!r}: test labels {sorted(unseen)} never occur in training data", stacklevel=3)


def _split_files(directory: Path, split: str) -> list[Path]:
    """The series files of one split in ``directory``: ``*_<split>*`` files with a series suffix."""
    return sorted(
        p for p in directory.glob(f"*_{split}*")
        if p.is_file() and p.suffix in _SERIES_SUFFIXES
    )


def _dataset_directory(path) -> Path:
    """``path`` as a Path; FileNotFoundError or NotADirectoryError unless it is a directory."""
    path = Path(path)
    if not path.is_dir():
        if path.exists():
            raise NotADirectoryError(f"dataset directory {path} is not a directory")
        raise FileNotFoundError(f"dataset directory {path} does not exist")
    return path


def _discover_datasets(paths: list[str]) -> list[Path]:
    """Each path that holds a *_TRAIN series file, else its subdirectories that do."""
    datasets = []
    for raw in paths:
        root = _dataset_directory(raw)
        if _split_files(root, "TRAIN"):
            datasets.append(root)
            continue
        children = sorted(p for p in root.iterdir() if p.is_dir() and _split_files(p, "TRAIN"))
        if not children:
            raise FileNotFoundError(f"{root}: no *_TRAIN file here or in any subdirectory")
        datasets.extend(children)
    return datasets


def _find_split(directory: Path, suffix: str) -> Path:
    matches = _split_files(directory, suffix)
    if len(matches) != 1:
        raise FileNotFoundError(
            f"{directory}: expected exactly one *_{suffix} file, found {len(matches)}"
        )
    return matches[0]


def load_dataset_pair(directory) -> DatasetPair:
    """Load ``<dir>/<anything>_TRAIN*`` and ``<dir>/<anything>_TEST*``.

    The dataset takes its name from the directory.
    """
    directory = _dataset_directory(directory)
    train = load_ucr(_find_split(directory, "TRAIN"))
    test = load_ucr(_find_split(directory, "TEST"))
    return DatasetPair(directory.name, train, test)


def _stream_dataset_pair(directory) -> tuple[LabeledDataset, Iterator[LabeledDataset]]:
    """``load_dataset_pair(directory)``'s splits, the test split as blocks of about ``distance._CHUNK_BUDGET`` values.

    A benchmark row and ``trendsax evaluate`` read a directory this way.
    The training split is loaded whole; the test split comes from
    ``_read_blocks`` in blocks of ``max(1, _CHUNK_BUDGET // n)`` rows, one
    held at a time unless the line parser reads the file whole.  The first
    block is read here, so a missing, empty or malformed start of the test
    file, or a series length that differs from the training split's,
    raises here as ``load_dataset_pair`` raises it.  The unseen-label
    warning of ``DatasetPair`` comes once, after the last block.
    """
    directory = _dataset_directory(directory)
    train = load_ucr(_find_split(directory, "TRAIN"))
    blocks = _read_blocks(_find_split(directory, "TEST"), max(1, distance._CHUNK_BUDGET // train.n))
    first = next(blocks)
    _check_lengths(directory.name, train, first)
    # chain keeps its arguments to the end: the list's iterator drops the first block once given, the list would not
    return train, _warned_after(directory.name, train, chain(iter([first]), blocks))


def _warned_after(name: str, train: LabeledDataset, blocks: Iterator[LabeledDataset]) -> Iterator[LabeledDataset]:
    """``blocks``, then ``DatasetPair``'s warning for the labels among them that ``train`` lacks."""
    labels: set[int] = set()
    for block in blocks:
        labels.update(block.labels.tolist())
        yield block
        del block  # so the next block is read with this one freed
    _warn_unseen(name, labels - set(train.labels.tolist()))
