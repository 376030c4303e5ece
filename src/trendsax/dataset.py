"""Loading labeled series files in the UCR text layout.

One instance per line: an integer class label followed by the series
values, separated by commas or tabs (detected per file).  All rows in a
file must have the same number of values.  Labels written as reals are
accepted when they are within 1e-6 of an integer.

A file is parsed twice at most.  numpy's C reader goes first, and its
array is kept only when the file ends lines at newlines alone, it gives
at least one row of a label and a value, every number is finite, and
every label is within 1e-6 of an integer that fits 64 bits.  Otherwise,
or when the C reader refuses the file, the line parser reads it again:
it defines the grammar, and it names the first offending line.  Where
both accept a file they give equal arrays.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from trendsax.classify import LabeledDataset

__all__ = ["DatasetPair", "UcrFormatError", "load_dataset_pair", "load_ucr"]

_SERIES_SUFFIXES = {"", ".txt", ".tsv", ".csv"}

# where str.splitlines ends a line besides "\n" ("\r" is already a
# newline once a file is read in text mode)
_LINE_BREAKS = "\v\f\x1c\x1d\x1e\x85\u2028\u2029"


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
    try:
        return _load_fast(path)
    except ValueError:
        return _load_lines(path)


def _load_fast(path: Path) -> LabeledDataset:
    """numpy's C reader; ValueError for any file the line parser must judge.

    ``str.splitlines`` also ends a line at the characters in
    ``_LINE_BREAKS``, while numpy's reader strips them from the edges of
    a field, so a file holding any of them is left to the line parser.
    """
    with path.open() as fh:
        first = next((line for line in fh if line.strip()), "")
        fh.seek(0)
        for chunk in iter(lambda: fh.read(1 << 20), ""):
            if any(c in chunk for c in _LINE_BREAKS):
                raise ValueError("line break other than a newline")
    table = np.loadtxt(path, delimiter=_detect_delimiter(first.strip()), comments=None,
                       ndmin=2, dtype=np.float64)
    labels = np.round(table[:, 0])
    if (table.shape[0] < 1 or table.shape[1] < 2 or not np.isfinite(table).all()
            or (np.abs(table[:, 0] - labels) > 1e-6).any()
            or (labels < -(2.0**63)).any() or (labels >= 2.0**63).any()):
        raise ValueError("outside the checked subset of the grammar")
    return LabeledDataset(table[:, 1:], labels.astype(np.int64))


def _load_lines(path: Path) -> LabeledDataset:
    """The line-by-line parser, which defines the grammar."""
    text = path.read_text()
    rows: list[np.ndarray] = []
    labels: list[int] = []
    delimiter = None
    width = None
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line:
            continue
        if delimiter is None:
            try:
                delimiter = _detect_delimiter(line)
            except ValueError as exc:
                raise UcrFormatError(path, lineno, str(exc)) from None
        fields = [f for f in line.split(delimiter) if f.strip()]
        if len(fields) < 2:
            raise UcrFormatError(path, lineno, "expected a label followed by series values")
        try:
            label = _parse_label(fields[0])
        except ValueError as exc:
            raise UcrFormatError(path, lineno, str(exc)) from None
        try:
            values = np.array([float(f) for f in fields[1:]], dtype=np.float64)
        except ValueError:
            raise UcrFormatError(path, lineno, "series value is not a number") from None
        if not np.isfinite(values).all():
            raise UcrFormatError(path, lineno, "series contains a non-finite value")
        if width is None:
            width = values.size
        elif values.size != width:
            raise UcrFormatError(
                path, lineno, f"row has {values.size} values, expected {width}"
            )
        labels.append(label)
        rows.append(values)
    if not rows:
        raise UcrFormatError(path, None, "file contains no instances")
    return LabeledDataset(np.stack(rows), np.array(labels, dtype=np.int64))


@dataclass(frozen=True, eq=False)
class DatasetPair:
    """A named train/test split with matching series lengths."""

    name: str
    train: LabeledDataset
    test: LabeledDataset

    def __post_init__(self) -> None:
        if self.train.n != self.test.n:
            raise ValueError(
                f"dataset {self.name!r}: train length {self.train.n} != test length {self.test.n}"
            )
        unseen = set(np.unique(self.test.labels)) - set(np.unique(self.train.labels))
        if unseen:
            warnings.warn(
                f"dataset {self.name!r}: test labels {sorted(unseen)} never occur in training data",
                stacklevel=2,
            )


def _find_split(directory: Path, suffix: str) -> Path:
    matches = sorted(
        p for p in directory.glob(f"*_{suffix}*")
        if p.is_file() and p.suffix in _SERIES_SUFFIXES
    )
    if len(matches) != 1:
        raise FileNotFoundError(
            f"{directory}: expected exactly one *_{suffix} file, found {len(matches)}"
        )
    return matches[0]


def load_dataset_pair(directory) -> DatasetPair:
    """Load ``<dir>/<anything>_TRAIN*`` and ``<dir>/<anything>_TEST*``.

    The dataset takes its name from the directory.
    """
    directory = Path(directory)
    if not directory.is_dir():
        raise FileNotFoundError(f"dataset directory {directory} does not exist")
    train = load_ucr(_find_split(directory, "TRAIN"))
    test = load_ucr(_find_split(directory, "TEST"))
    return DatasetPair(directory.name, train, test)
