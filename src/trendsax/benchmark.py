"""Multi-dataset evaluation matrix and report rendering.

A benchmark runs :func:`trendsax.classify.evaluate` for every requested
segmentation scheme on every dataset, then renders the resulting matrix
as CSV, JSON, or an aligned text table.  Output is deterministic: given
the same inputs it is byte-identical regardless of worker count.
"""

from __future__ import annotations

import csv
import io
import json
import multiprocessing
from concurrent.futures import Future, ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable

from trendsax.classify import DEFAULT_ALPHABET_RANGE, EvaluationReport, _normalized_alphabet_range, evaluate
from trendsax.dataset import DatasetPair, load_dataset_pair
from trendsax.segmentation import SCHEMES

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

CSV_COLUMNS = (
    "dataset",
    "scheme",
    "alpha_chosen",
    "m",
    "train_error",
    "test_error",
    "misclassified",
    "total",
    "is_row_min",
)

REPORT_FORMATS = ("csv", "json", "text")


@dataclass(frozen=True)
class BenchmarkConfig:
    """Settings shared by every dataset in a run.

    ``word_count`` fixes the word length for all datasets; when None the
    length is ``max(1, n // ratio)`` per dataset.
    """

    schemes: tuple[str, ...] = SCHEMES
    alphabet_range: tuple[int, ...] = tuple(DEFAULT_ALPHABET_RANGE)
    word_count: int | None = None
    ratio: int = 4
    jobs: int = 1

    def __post_init__(self) -> None:
        for scheme in self.schemes:
            if scheme not in SCHEMES:
                raise ValueError(f"unknown scheme {scheme!r}")
        if not self.schemes:
            raise ValueError("at least one scheme is required")
        _normalized_alphabet_range(self.alphabet_range)
        if self.word_count is not None and self.word_count < 1:
            raise ValueError("word_count must be positive")
        if self.ratio < 1:
            raise ValueError("ratio must be positive")
        if self.jobs < 1:
            raise ValueError("jobs must be positive")

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


def _dataset_row(source: DatasetPair | Path, config: BenchmarkConfig) -> BenchmarkRow:
    try:
        pair = source if isinstance(source, DatasetPair) else load_dataset_pair(source)
        m = config.word_count_for(pair.train.n)
        reports = {
            scheme: evaluate(
                pair.train,
                pair.test,
                scheme=scheme,
                m=m,
                alphabet_range=config.alphabet_range,
                dataset=pair.name,
            )
            for scheme in config.schemes
        }
        return BenchmarkRow(pair.name, reports)
    except Exception as exc:
        return _failed_row(source, exc)


def _failed_row(source: DatasetPair | Path, exc: Exception) -> BenchmarkRow:
    # a directory and the pair loaded from it share a name
    return BenchmarkRow(source.name, {}, error=f"{type(exc).__name__}: {exc}")


def _worker_row(future: Future, source: DatasetPair | Path, config: BenchmarkConfig) -> BenchmarkRow:
    try:
        return future.result()
    except BrokenProcessPool:
        # a dead worker fails every row in flight; rerun this one alone, so
        # only the dataset whose own worker dies again is lost.  Spawned,
        # not forked, since the first pool has started threads in this process
        with ProcessPoolExecutor(max_workers=1, mp_context=multiprocessing.get_context("spawn")) as pool:
            try:
                return pool.submit(_dataset_row, source, config).result()
            except BrokenProcessPool as exc:
                return _failed_row(source, exc)


def _count_wins(rows: tuple[BenchmarkRow, ...], schemes: tuple[str, ...]) -> dict[str, int]:
    wins = {scheme: 0 for scheme in schemes}
    for row in rows:
        best = BenchmarkMatrix.row_min(row)
        for scheme, report in row.reports.items():
            if report.test_error == best:
                wins[scheme] += 1
    return wins


def run_benchmark(
    pairs: Iterable[DatasetPair | str | Path],
    config: BenchmarkConfig | None = None,
) -> BenchmarkMatrix:
    """Evaluate every scheme on every dataset.

    Each dataset is a loaded :class:`DatasetPair` or a directory that
    :func:`~trendsax.dataset.load_dataset_pair` reads inside the row, so
    a directory's arrays exist only while its row runs.  Datasets are
    independent, so with ``config.jobs > 1`` they are dispatched to a
    process pool; results keep input order either way.  A dataset that
    fails to load or to score, or whose worker process dies, is recorded
    as a failed row, not fatal.  A row lost with a dead worker is run
    again alone in a fresh one-worker pool, so a crash costs only the
    dataset that causes it.
    """
    config = config or BenchmarkConfig()
    pairs = tuple(p if isinstance(p, DatasetPair) else Path(p) for p in pairs)
    if config.jobs > 1 and len(pairs) > 1:
        with ProcessPoolExecutor(max_workers=config.jobs) as pool:
            futures = [pool.submit(_dataset_row, pair, config) for pair in pairs]
            rows = tuple(_worker_row(future, pair, config) for future, pair in zip(futures, pairs))
    else:
        rows = tuple(_dataset_row(pair, config) for pair in pairs)
    return BenchmarkMatrix(rows, _count_wins(rows, config.schemes))


def report_fields(report: EvaluationReport) -> dict[str, object]:
    """The ``alpha_chosen`` through ``total`` fields every rendering shares."""
    return {
        "alpha_chosen": report.alpha,
        "m": report.m,
        "train_error": report.train_error,
        "test_error": report.test_error,
        "misclassified": report.misclassified,
        "total": report.total,
    }


def _ordered_reports(row: BenchmarkRow) -> list[tuple[str, EvaluationReport]]:
    # SCHEMES.index raises ValueError for a scheme the library does not define
    return sorted(row.reports.items(), key=lambda item: SCHEMES.index(item[0]))


def _emit_csv(matrix: BenchmarkMatrix) -> str:
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for row in matrix.rows:
        best = matrix.row_min(row)
        for scheme, report in _ordered_reports(row):
            fields = [repr(v) if isinstance(v, float) else v for v in report_fields(report).values()]
            writer.writerow([row.dataset, scheme, *fields,
                             "true" if report.test_error == best else "false"])
    return out.getvalue()


def _emit_json(matrix: BenchmarkMatrix) -> str:
    rows = []
    for row in matrix.rows:
        best = matrix.row_min(row)
        if row.error is not None:
            rows.append({"dataset": row.dataset, "error": row.error})
            continue
        rows.append(
            {
                "dataset": row.dataset,
                "schemes": {
                    scheme: {**report_fields(report), "is_row_min": report.test_error == best}
                    for scheme, report in _ordered_reports(row)
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
        best = matrix.row_min(row)
        cells = [row.dataset]
        for scheme in schemes:
            report = row.reports.get(scheme)
            if report is None:
                cells.append("-")
                continue
            mark = "*" if report.test_error == best else " "
            cells.append(f"{report.test_error:.5g}{mark}")
        body.append(cells)
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


def emit_report(matrix: BenchmarkMatrix, fmt: str = "csv") -> str:
    """Render a matrix as ``csv``, ``json``, or ``text``.

    CSV carries one row per (dataset, scheme) with the columns in
    :data:`CSV_COLUMNS`; floats use their shortest round-trip form.
    Failed datasets appear only in the JSON and text renderings.
    """
    if fmt == "csv":
        return _emit_csv(matrix)
    if fmt == "json":
        return _emit_json(matrix)
    if fmt == "text":
        return _emit_text(matrix)
    raise ValueError(f"unknown report format {fmt!r}; expected one of {REPORT_FORMATS}")


def read_report_csv(text: str) -> list[dict[str, object]]:
    """Parse :func:`emit_report` CSV output back into typed row dicts."""
    reader = csv.DictReader(io.StringIO(text))
    if reader.fieldnames is None or tuple(reader.fieldnames) != CSV_COLUMNS:
        raise ValueError(f"unexpected CSV header {reader.fieldnames!r}")
    rows: list[dict[str, object]] = []
    for record in reader:
        rows.append(
            {
                "dataset": record["dataset"],
                "scheme": record["scheme"],
                "alpha_chosen": int(record["alpha_chosen"]),
                "m": int(record["m"]),
                "train_error": float(record["train_error"]),
                "test_error": float(record["test_error"]),
                "misclassified": int(record["misclassified"]),
                "total": int(record["total"]),
                "is_row_min": record["is_row_min"] == "true",
            }
        )
    return rows
