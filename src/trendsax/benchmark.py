"""Multi-dataset evaluation matrix and report rendering.

A benchmark tunes and scores every requested segmentation scheme on
every dataset as :func:`trendsax.classify.evaluate` does, each test
split scored once for all schemes (``_dataset_reports``, which
``trendsax evaluate`` also calls), then renders the resulting matrix as
CSV, JSON, or an aligned text table.  Output is deterministic: given the
same inputs it is byte-identical regardless of worker count.
"""

from __future__ import annotations

import csv
import io
import json
import operator
import os
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Iterator

from trendsax.classify import DEFAULT_ALPHABET_RANGE, EvaluationReport, _evaluate, _normalized_alphabet_range
from trendsax.core import _as_integers
from trendsax.dataset import DatasetPair, _stream_dataset_pair
from trendsax.segmentation import SCHEMES, _check_scheme

if TYPE_CHECKING:
    from concurrent.futures import Future, ProcessPoolExecutor

__all__ = [
    "BenchmarkConfig",
    "BenchmarkMatrix",
    "BenchmarkRow",
    "CSV_COLUMNS",
    "emit_report",
    "read_report_csv",
    "report_fields",
    "run_benchmark",
]

# the fields every rendering gives a report: column name, EvaluationReport
# attribute, and how read_report_csv parses the column
_REPORT_FIELDS = (
    ("alpha_chosen", "alpha", int),
    ("m", "m", int),
    ("train_error", "train_error", float),
    ("test_error", "test_error", float),
    ("misclassified", "misclassified", int),
    ("total", "total", int),
)

CSV_COLUMNS = ("dataset", "scheme", *(column for column, _, _ in _REPORT_FIELDS), "is_row_min")

# how read_report_csv parses each column of CSV_COLUMNS
_CSV_TYPES = (str, str, *(parse for _, _, parse in _REPORT_FIELDS), "true".__eq__)

@dataclass(frozen=True)
class BenchmarkConfig:
    """Settings shared by every dataset in a run.

    ``schemes`` is stored as a tuple and ``alphabet_range`` as its sorted,
    distinct sizes.  ``word_count`` fixes the word length for all datasets;
    when None the length is ``max(1, n // ratio)`` per dataset.
    """

    schemes: tuple[str, ...] = SCHEMES
    alphabet_range: tuple[int, ...] = tuple(DEFAULT_ALPHABET_RANGE)
    word_count: int | None = None
    ratio: int = 4
    jobs: int = 1

    def __post_init__(self) -> None:
        object.__setattr__(self, "schemes", tuple(self.schemes))
        for scheme in self.schemes:
            _check_scheme(scheme)
        if not self.schemes:
            raise ValueError("at least one scheme is required")
        if len(set(self.schemes)) != len(self.schemes):
            raise ValueError(f"schemes must be distinct, got {', '.join(self.schemes)}")
        object.__setattr__(self, "alphabet_range", tuple(_normalized_alphabet_range(self.alphabet_range)))
        for name in ("word_count", "ratio", "jobs"):
            count = getattr(self, name)
            if count is not None:
                if _as_integers(count, name) < 1:
                    raise ValueError(f"{name} must be positive")
                object.__setattr__(self, name, int(count))

    def word_count_for(self, n: int) -> int:
        if self.word_count is not None:
            return self.word_count
        return max(1, n // self.ratio)


@dataclass(frozen=True)
class BenchmarkRow:
    """Results for one dataset: a report per scheme, or a failure message."""

    dataset: str
    reports: dict[str, EvaluationReport] = field(default_factory=dict)
    error: str | None = None


@dataclass(frozen=True)
class BenchmarkMatrix:
    """All rows of a run plus per-scheme counts of row-minimum test errors.

    A scheme scores a win on every dataset where it attains the smallest
    test error in that row; ties award a win to each tied scheme.
    """

    rows: tuple[BenchmarkRow, ...]
    win_counts: dict[str, int]

    @staticmethod
    def row_min(row: BenchmarkRow) -> float | None:
        return min((report.test_error for report in row.reports.values()), default=None)


def _dataset_reports(source: DatasetPair | Path, config: BenchmarkConfig) -> list[EvaluationReport]:
    """``config.schemes``' reports on ``source``, for a benchmark row or ``trendsax evaluate``; any failure raises."""
    if isinstance(source, DatasetPair):
        train, blocks = source.train, [source.test]
    else:
        train, blocks = _stream_dataset_pair(source)
    return _evaluate(train, blocks, config.schemes, config.word_count_for(train.n), config.alphabet_range, source.name)


def _dataset_row(source: DatasetPair | Path, config: BenchmarkConfig) -> BenchmarkRow:
    try:
        return BenchmarkRow(source.name, dict(zip(config.schemes, _dataset_reports(source, config))))
    except Exception as exc:
        return _failed_row(source, exc)


def _failed_row(source: DatasetPair | Path, exc: Exception) -> BenchmarkRow:
    # a directory and the pair loaded from it share a name
    return BenchmarkRow(source.name, {}, error=f"{type(exc).__name__}: {exc}")


@contextmanager
def _pool(workers: int) -> Iterator[ProcessPoolExecutor]:
    """A pool of ``workers`` spawned processes, each starting OpenBLAS with one thread.

    OpenBLAS reads ``OPENBLAS_NUM_THREADS`` when numpy loads, so while the
    pool lives the variable is ``"1"`` in ``os.environ``, unless already
    set; otherwise each worker would run a BLAS thread per core.  Spawned
    workers inherit no lock that this process's BLAS threads hold.
    """
    # imported here, so a run without a pool loads none of the pool's modules
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    preset = "OPENBLAS_NUM_THREADS" in os.environ
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    try:
        with ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("spawn")) as pool:
            yield pool
    finally:
        if not preset:
            os.environ.pop("OPENBLAS_NUM_THREADS", None)


def _worker_row(future: Future, source: DatasetPair | Path, config: BenchmarkConfig) -> BenchmarkRow:
    from concurrent.futures.process import BrokenProcessPool

    try:
        return future.result()
    except BrokenProcessPool:
        # a dead worker fails every row in flight; rerun this one alone, so
        # only the dataset whose own worker dies again is lost
        with _pool(1) as pool:
            try:
                return pool.submit(_dataset_row, source, config).result()
            except BrokenProcessPool as exc:
                return _failed_row(source, exc)


def _row_winners(row: BenchmarkRow) -> list[tuple[str, EvaluationReport, bool]]:
    """Each report of ``row`` in ``SCHEMES`` order, with whether it attains the row minimum."""
    best = BenchmarkMatrix.row_min(row)
    # SCHEMES.index raises ValueError for a scheme the library does not define
    ordered = sorted(row.reports.items(), key=lambda item: SCHEMES.index(item[0]))
    return [(scheme, report, bool(report.test_error == best)) for scheme, report in ordered]


def _count_wins(rows: tuple[BenchmarkRow, ...], schemes: tuple[str, ...]) -> dict[str, int]:
    wins = {scheme: 0 for scheme in schemes}
    for row in rows:
        for scheme, _, is_row_min in _row_winners(row):
            if is_row_min:
                wins[scheme] += 1
    return wins


def run_benchmark(
    pairs: Iterable[DatasetPair | str | Path],
    config: BenchmarkConfig | None = None,
) -> BenchmarkMatrix:
    """Evaluate every scheme on every dataset.

    Each dataset is a loaded :class:`DatasetPair` or a directory read
    inside the row, as ``trendsax evaluate`` reads one: its test split
    comes in blocks of about ``distance._CHUNK_BUDGET`` values, each scored
    under every scheme as it is read, and is held whole only if numpy's
    reader refuses a block (an empty field, or a number form that only
    ``float()`` reads) and the line parser reads the file; the training
    split is held only while its row runs.
    Datasets are independent, so with ``config.jobs > 1`` they are
    dispatched to a process pool; results keep input order either way.
    A dataset that fails to load or to score, or whose worker process
    dies, is recorded as a failed row, not fatal.  A row lost with a
    dead worker is run again alone in a fresh one-worker pool, so a
    crash costs only the dataset that causes it.
    """
    config = config or BenchmarkConfig()
    pairs = tuple(p if isinstance(p, DatasetPair) else Path(p) for p in pairs)
    if config.jobs > 1 and len(pairs) > 1:
        with _pool(min(config.jobs, len(pairs))) as pool:
            futures = [pool.submit(_dataset_row, pair, config) for pair in pairs]
            rows = tuple(_worker_row(future, pair, config) for future, pair in zip(futures, pairs))
    else:
        rows = tuple(_dataset_row(pair, config) for pair in pairs)
    return BenchmarkMatrix(rows, _count_wins(rows, config.schemes))


def report_fields(report: EvaluationReport) -> dict[str, object]:
    """The report's fields that every rendering shares, by column name, as Python ints (never truncated) and floats."""
    return {column: (operator.index if parse is int else float)(getattr(report, attribute))
            for column, attribute, parse in _REPORT_FIELDS}


def _csv_text(header: Iterable[object], rows: Iterable[Iterable[object]]) -> str:
    """CSV with ``\n`` line ends and floats in their shortest round-trip form."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return out.getvalue()


def _emit_csv(matrix: BenchmarkMatrix) -> str:
    rows = []
    for row in matrix.rows:
        for scheme, report, is_row_min in _row_winners(row):
            rows.append([row.dataset, scheme, *report_fields(report).values(),
                         "true" if is_row_min else "false"])
    return _csv_text(CSV_COLUMNS, rows)


def _emit_json(matrix: BenchmarkMatrix) -> str:
    rows = []
    for row in matrix.rows:
        if row.error is not None:
            rows.append({"dataset": row.dataset, "error": row.error})
            continue
        rows.append(
            {
                "dataset": row.dataset,
                "schemes": {
                    scheme: {**report_fields(report), "is_row_min": is_row_min}
                    for scheme, report, is_row_min in _row_winners(row)
                },
            }
        )
    payload = {
        "rows": rows,
        "win_counts": matrix.win_counts,
        "errors": {row.dataset: row.error for row in matrix.rows if row.error is not None},
    }
    return json.dumps(payload, indent=2) + "\n"


def _emit_text(matrix: BenchmarkMatrix) -> str:
    schemes = sorted(matrix.win_counts, key=SCHEMES.index)
    header = ["dataset"] + schemes
    body: list[list[str]] = []
    for row in matrix.rows:
        if row.error is not None:
            body.append([row.dataset, f"error: {row.error}"])
            continue
        cells = {}
        for scheme, report, is_row_min in _row_winners(row):
            mark = "*" if is_row_min else " "
            cells[scheme] = f"{report.test_error:.5g}{mark}"
        body.append([row.dataset] + [cells.get(scheme, "-") for scheme in schemes])
    footer = ["wins"] + [str(matrix.win_counts.get(s, 0)) for s in schemes]
    table = [header] + body + [footer]
    # a failed row's message is its last cell and sizes no column
    sized = [header, footer] + [cells for cells, row in zip(body, matrix.rows) if row.error is None]
    widths = [max(len(r[0]) for r in table)] + [max(len(r[i]) for r in sized) for i in range(1, len(header))]
    lines = []
    for i, r in enumerate(table):
        lines.append("  ".join(cell.ljust(widths[j]) for j, cell in enumerate(r)).rstrip())
        if i == 0 or i == len(table) - 2:
            lines.append("  ".join("-" * widths[j] for j in range(len(header))))
    return "\n".join(lines) + "\n"


_EMITTERS = {"csv": _emit_csv, "json": _emit_json, "text": _emit_text}

REPORT_FORMATS = tuple(_EMITTERS)


def emit_report(matrix: BenchmarkMatrix, fmt: str = "csv") -> str:
    """Render a matrix as ``csv``, ``json``, or ``text``.

    CSV carries one row per (dataset, scheme) with the columns in
    :data:`CSV_COLUMNS`; floats use their shortest round-trip form.
    Failed datasets appear only in the JSON and text renderings.
    """
    if fmt not in _EMITTERS:
        raise ValueError(f"unknown report format {fmt!r}; expected one of {REPORT_FORMATS}")
    return _EMITTERS[fmt](matrix)


def read_report_csv(text: str) -> list[dict[str, object]]:
    """Parse :func:`emit_report` CSV back into typed row dicts; a malformed row's error names its line."""
    reader = csv.reader(io.StringIO(text))
    header = next(reader, None)
    if header is None or tuple(header) != CSV_COLUMNS:
        raise ValueError(f"unexpected CSV header {header!r}")
    rows: list[dict[str, object]] = []
    for record in filter(None, reader):  # blank lines hold no row
        if len(record) != len(CSV_COLUMNS):
            raise ValueError(f"line {reader.line_num}: expected {len(CSV_COLUMNS)} fields, got {len(record)}")
        if record[-1] not in ("true", "false"):
            raise ValueError(f"line {reader.line_num}: is_row_min must be true or false, got {record[-1]!r}")
        try:
            rows.append({name: parse(cell) for name, parse, cell in zip(CSV_COLUMNS, _CSV_TYPES, record)})
        except ValueError as exc:
            raise ValueError(f"line {reader.line_num}: {exc}") from None
    return rows
