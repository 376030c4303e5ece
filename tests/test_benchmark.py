import json
import os
import re
import subprocess
import sys
from concurrent.futures import Future

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trendsax import benchmark
from trendsax.benchmark import (
    BenchmarkConfig,
    BenchmarkMatrix,
    BenchmarkRow,
    CSV_COLUMNS,
    REPORT_FORMATS,
    emit_report,
    read_report_csv,
    run_benchmark,
)
from trendsax.classify import EvaluationReport
from trendsax.dataset import DatasetPair, LabeledDataset, load_dataset_pair
from trendsax.segmentation import SCHEMES


class WorkerKiller(DatasetPair):
    """A dataset whose unpickling ends the worker process that receives it."""

    def __reduce__(self):
        return os._exit, (1,)


# tunes a 300-row split in process, so OpenBLAS threads have run float32
# products, then forks --jobs 2 workers; prints the jobs=1 and jobs=2 reports
FORK_AFTER_BLAS = """
import sys
import numpy as np
from trendsax.benchmark import BenchmarkConfig, emit_report, run_benchmark
from trendsax.classify import LabeledDataset, evaluate
from trendsax.dataset import load_dataset_pair

rng = np.random.default_rng(5)
data = LabeledDataset(rng.standard_normal((300, 256)).cumsum(axis=1), rng.integers(1, 4, size=300))
evaluate(data, data, "classic", 64)
pairs = [load_dataset_pair(path) for path in sys.argv[1:]]
for jobs in (1, 2):
    sys.stdout.write(emit_report(run_benchmark(pairs, BenchmarkConfig(jobs=jobs)), "csv") + "\\0")
"""


@pytest.fixture(scope="module")
def suite_pairs(suite_dir):
    return [load_dataset_pair(suite_dir / name) for name in ("Steps", "Ramps", "Bumps")]


@pytest.fixture(scope="module")
def suite_matrix(suite_pairs):
    return run_benchmark(suite_pairs, BenchmarkConfig())


def report_for(dataset, scheme, test_error, alpha=3, m=4, total=10):
    wrong = round(test_error * total)
    return EvaluationReport(
        dataset=dataset, scheme=scheme, alpha=alpha, m=m,
        train_error=0.0, test_error=wrong / total, misclassified=wrong, total=total,
    )


def numpy_scalar_matrix():
    # a report whose errors are numpy scalars, as a caller's own arithmetic may give
    report = EvaluationReport("d", "classic", 3, 4, np.float64(0.25), np.float64(0.5), 1, 2)
    return BenchmarkMatrix((BenchmarkRow("d", {"classic": report}),), {"classic": 1})


class TestConfig:
    def test_defaults(self):
        config = BenchmarkConfig()
        assert config.schemes == SCHEMES
        assert config.alphabet_range == tuple(range(3, 21))
        assert config.jobs == 1

    def test_stores_canonical_values(self):
        config = BenchmarkConfig(schemes=(s for s in ["split", "classic"]), alphabet_range=[5, 3, 4, 3])
        assert (config.schemes, config.alphabet_range) == (("split", "classic"), (3, 4, 5))
        assert hash(config) == hash(BenchmarkConfig(schemes=("split", "classic"), alphabet_range=range(3, 6)))
        assert BenchmarkConfig(alphabet_range=(4, 3)) == BenchmarkConfig(alphabet_range=(3, 4))

    def test_word_count_override_and_ratio(self):
        assert BenchmarkConfig(word_count=7).word_count_for(100) == 7
        assert BenchmarkConfig(ratio=4).word_count_for(22) == 5
        assert BenchmarkConfig(ratio=8).word_count_for(6) == 1

    def test_validation(self):
        with pytest.raises(ValueError):
            BenchmarkConfig(schemes=("sideways",))
        with pytest.raises(ValueError):
            BenchmarkConfig(schemes=())
        with pytest.raises(ValueError):
            BenchmarkConfig(jobs=0)
        with pytest.raises(ValueError):
            BenchmarkConfig(word_count=0)
        with pytest.raises(ValueError, match="alphabet range is empty"):
            BenchmarkConfig(alphabet_range=())
        with pytest.raises(ValueError, match=re.escape("alphabet sizes must lie in [2, 26]")):
            BenchmarkConfig(alphabet_range=tuple(range(2, 31)))

    @pytest.mark.parametrize("name, value", [("ratio", 2.5), ("word_count", 2.5), ("jobs", 1.5)])
    def test_counts_must_be_integral(self, name, value):
        with pytest.raises(ValueError, match=f"^{name} must be integral"):
            BenchmarkConfig(**{name: value})

    def test_integral_float_counts_are_stored_as_ints(self, suite_pairs):
        config = BenchmarkConfig(word_count=7.0, ratio=np.int64(4), jobs=2.0)
        assert [type(config.word_count), type(config.ratio), type(config.jobs)] == [int] * 3
        # a float ratio must not reach the report's m, nor a float jobs the process pool
        floats = BenchmarkConfig(alphabet_range=(3, 4), ratio=4.0, jobs=2.0)
        ints = BenchmarkConfig(alphabet_range=(3, 4), ratio=4, jobs=2)
        assert emit_report(run_benchmark(suite_pairs, floats)) == emit_report(run_benchmark(suite_pairs, ints))


class TestRunBenchmark:
    def test_single_dataset_single_scheme(self, suite_pairs):
        matrix = run_benchmark(suite_pairs[:1], BenchmarkConfig(schemes=("classic",)))
        assert len(matrix.rows) == 1
        assert list(matrix.rows[0].reports) == ["classic"]
        assert matrix.win_counts == {"classic": 1}

    def test_full_suite_shape(self, suite_matrix):
        assert [row.dataset for row in suite_matrix.rows] == ["Steps", "Ramps", "Bumps"]
        for row in suite_matrix.rows:
            assert row.error is None
            assert set(row.reports) == set(SCHEMES)

    def test_win_counts_match_independent_recount(self, suite_matrix):
        recount = dict.fromkeys(SCHEMES, 0)
        for row in suite_matrix.rows:
            best = min(r.test_error for r in row.reports.values())
            for scheme, report in row.reports.items():
                if report.test_error == best:
                    recount[scheme] += 1
        assert suite_matrix.win_counts == recount
        assert sum(recount.values()) >= len(suite_matrix.rows)

    def test_failing_dataset_recorded_not_fatal(self, suite_pairs):
        config = BenchmarkConfig(word_count=9999)
        matrix = run_benchmark(suite_pairs[:2], config)
        assert all(row.error is not None for row in matrix.rows)
        assert [row.dataset for row in matrix.rows] == ["Steps", "Ramps"]
        assert matrix.win_counts == dict.fromkeys(SCHEMES, 0)

    def test_huge_constant_training_series_scores_as_any_constant_series(self, suite_pairs):
        # its centred squares overflow (numpy warns), but like 0.0 it z-normalizes to zeros
        pair = suite_pairs[0]

        def with_first_train_series(value):
            series = pair.train.series.copy()
            series[0] = value
            return DatasetPair(pair.name, LabeledDataset(series, pair.train.labels), pair.test)

        with np.errstate(over="ignore"):
            matrix = run_benchmark([with_first_train_series(1e300)])
        assert matrix.rows[0].error is None
        assert matrix.rows == run_benchmark([with_first_train_series(0.0)]).rows

    def test_directories_match_loaded_pairs(self, suite_dir, suite_matrix):
        matrix = run_benchmark([suite_dir / name for name in ("Steps", "Ramps", "Bumps")])
        assert matrix.rows == suite_matrix.rows
        assert matrix.win_counts == suite_matrix.win_counts

    def test_unloadable_directory_is_one_failed_row(self, suite_dir, suite_pairs, tmp_path):
        config = BenchmarkConfig(alphabet_range=(3, 4))
        matrix = run_benchmark([suite_pairs[0], str(tmp_path / "Gone")], config)
        assert [row.dataset for row in matrix.rows] == ["Steps", "Gone"]
        assert matrix.rows[0].error is None
        assert matrix.rows[1].error.startswith("FileNotFoundError: ")
        assert matrix.rows[1].reports == {}

    def test_jobs_do_not_change_results(self, suite_pairs, suite_matrix):
        parallel = run_benchmark(suite_pairs, BenchmarkConfig(jobs=4))
        assert emit_report(parallel, "csv") == emit_report(suite_matrix, "csv")
        assert parallel.win_counts == suite_matrix.win_counts

    def test_workers_forked_after_blas_threads_give_the_same_report(self, suite_dir, child_env):
        # a worker that deadlocks on a lock held by a BLAS thread at fork
        # would hang the run, so it gets a deadline
        proc = subprocess.run(
            [sys.executable, "-c", FORK_AFTER_BLAS, *(str(suite_dir / name) for name in ("Steps", "Ramps", "Bumps"))],
            capture_output=True, text=True, timeout=300, env=child_env,
        )
        assert proc.returncode == 0, proc.stderr[-4000:]
        serial, parallel, _ = proc.stdout.split("\0")
        assert serial.count("\n") == 13  # a header and 3 datasets x 4 schemes
        assert parallel == serial

    def test_killed_worker_costs_its_rows(self, suite_pairs, suite_matrix):
        steps, ramps, bumps = suite_pairs
        killer = WorkerKiller("Killer", steps.train, steps.test)
        matrix = run_benchmark([ramps, killer, bumps], BenchmarkConfig(jobs=2))
        assert [row.dataset for row in matrix.rows] == ["Ramps", "Killer", "Bumps"]
        assert matrix.rows[1].error.startswith("BrokenProcessPool: ")
        assert matrix.rows[1].reports == {}
        serial = {row.dataset: row for row in suite_matrix.rows}
        for row in (matrix.rows[0], matrix.rows[2]):
            assert row == serial[row.dataset]

    @pytest.mark.parametrize("jobs, datasets, workers", [(6, 2, 2), (2, 3, 2), (3, 3, 3)])
    def test_pool_starts_no_more_workers_than_datasets(self, jobs, datasets, workers,
                                                       suite_pairs, suite_matrix, monkeypatch):
        started = []

        class InlinePool:
            """Records the pool size and runs each call here, so no process starts."""

            def __init__(self, max_workers):
                started.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc_info):
                return False

            def submit(self, fn, *args):
                future = Future()
                future.set_result(fn(*args))
                return future

        monkeypatch.setattr(benchmark, "ProcessPoolExecutor", InlinePool)
        matrix = run_benchmark(suite_pairs[:datasets], BenchmarkConfig(jobs=jobs))
        assert started == [workers]
        assert matrix.rows == suite_matrix.rows[:datasets]

    def test_row_order_follows_input_order(self, suite_pairs, suite_matrix):
        reversed_matrix = run_benchmark(list(reversed(suite_pairs)), BenchmarkConfig())
        assert [r.dataset for r in reversed_matrix.rows] == ["Bumps", "Ramps", "Steps"]
        forward = {r.dataset: r for r in suite_matrix.rows}
        for row in reversed_matrix.rows:
            assert row.reports == forward[row.dataset].reports
        assert reversed_matrix.win_counts == suite_matrix.win_counts


class TestEmitReport:
    def test_csv_single_cell(self):
        matrix = BenchmarkMatrix(
            (BenchmarkRow("Toy", {"classic": report_for("Toy", "classic", 0.2)}),),
            {"classic": 1},
        )
        lines = emit_report(matrix, "csv").splitlines()
        assert lines[0] == ",".join(CSV_COLUMNS)
        assert len(lines) == 2
        assert lines[1] == "Toy,classic,3,4,0.0,0.2,2,10,true"

    def test_csv_writes_numpy_scalars_as_numbers(self):
        assert emit_report(numpy_scalar_matrix(), "csv").splitlines()[1] == "d,classic,3,4,0.25,0.5,1,2,true"

    def test_json_writes_numpy_scalars_as_numbers(self):
        cell = json.loads(emit_report(numpy_scalar_matrix(), "json"))["rows"][0]["schemes"]["classic"]
        assert (cell["train_error"], cell["test_error"], cell["is_row_min"]) == (0.25, 0.5, True)

    def test_numpy_integers_render_as_numbers_in_every_format(self):
        report = EvaluationReport("d", "classic", np.int64(3), 4, 0.25, 0.5, np.int64(1), 2)
        matrix = BenchmarkMatrix((BenchmarkRow("d", {"classic": report}),), {"classic": 1})
        cell = json.loads(emit_report(matrix, "json"))["rows"][0]["schemes"]["classic"]
        assert [cell[key] for key in ("alpha_chosen", "m", "misclassified", "total")] == [3, 4, 1, 2]
        assert emit_report(matrix, "csv").splitlines()[1] == "d,classic,3,4,0.25,0.5,1,2,true"
        assert emit_report(matrix, "text") == emit_report(numpy_scalar_matrix(), "text")

    def test_fractional_integer_field_is_not_truncated(self):
        report = EvaluationReport("d", "classic", 3.5, 4, 0.25, 0.5, 1, 2)
        with pytest.raises(TypeError):
            benchmark.report_fields(report)

    @pytest.mark.parametrize("fmt", REPORT_FORMATS)
    def test_tied_row_marks_every_winner(self, fmt):
        # given out of SCHEMES order; every rendering lists them in it
        reports = {
            "split": report_for("Toy", "split", 0.2),
            "intertwine": report_for("Toy", "intertwine", 0.5),
            "overlap": report_for("Toy", "overlap", 0.2),
            "classic": report_for("Toy", "classic", 0.2),
        }
        matrix = BenchmarkMatrix(
            (BenchmarkRow("Toy", reports),),
            {"classic": 1, "overlap": 1, "intertwine": 0, "split": 1},
        )
        text = emit_report(matrix, fmt)
        if fmt == "csv":
            flags = {r["scheme"]: r["is_row_min"] for r in read_report_csv(text)}
        elif fmt == "json":
            cells = json.loads(text)["rows"][0]["schemes"]
            flags = {scheme: cell["is_row_min"] for scheme, cell in cells.items()}
        else:
            header, _, toy = text.splitlines()[:3]
            flags = {scheme: cell.endswith("*") for scheme, cell in zip(header.split()[1:], toy.split()[1:])}
        assert flags == {"classic": True, "overlap": True, "intertwine": False, "split": True}
        assert list(flags) == list(SCHEMES)

    def test_json_round_trip_matches_matrix(self, suite_matrix):
        payload = json.loads(emit_report(suite_matrix, "json"))
        assert payload["win_counts"] == suite_matrix.win_counts
        assert payload["errors"] == {}
        assert [r["dataset"] for r in payload["rows"]] == [r.dataset for r in suite_matrix.rows]
        for row_json, row in zip(payload["rows"], suite_matrix.rows):
            best = min(r.test_error for r in row.reports.values())
            for scheme, report in row.reports.items():
                cell = row_json["schemes"][scheme]
                assert cell["alpha_chosen"] == report.alpha
                assert cell["m"] == report.m
                assert cell["train_error"] == report.train_error
                assert cell["test_error"] == report.test_error
                assert cell["misclassified"] == report.misclassified
                assert cell["total"] == report.total
                assert cell["is_row_min"] == (report.test_error == best)

    def test_json_records_failures(self, suite_pairs):
        matrix = run_benchmark(suite_pairs[:1], BenchmarkConfig(word_count=9999))
        payload = json.loads(emit_report(matrix, "json"))
        assert "Steps" in payload["errors"]
        assert "error" in payload["rows"][0]

    def test_text_table_marks_minima_and_wins(self, suite_matrix):
        text = emit_report(suite_matrix, "text")
        lines = text.splitlines()
        assert lines[0].split()[:2] == ["dataset", "classic"]
        assert lines[-1].startswith("wins")
        assert "*" in text

    def test_text_error_row_and_missing_cell(self):
        matrix = BenchmarkMatrix(
            (
                BenchmarkRow("Toy", {"overlap": report_for("Toy", "overlap", 0.2),
                                     "classic": report_for("Toy", "classic", 0.5)}),
                BenchmarkRow("Broken", {}, error="ValueError: boom"),
            ),
            {"classic": 0, "overlap": 1, "split": 0},
        )
        assert emit_report(matrix, "text") == (
            "dataset  classic  overlap  split\n"
            "-------  -------  -------  -----\n"
            "Toy      0.5      0.2*     -\n"
            "Broken   error: ValueError: boom\n"
            "-------  -------  -------  -----\n"
            "wins     0        1        0\n"
        )

    @pytest.mark.parametrize("fmt", REPORT_FORMATS)
    def test_unknown_scheme_rejected(self, fmt):
        matrix = BenchmarkMatrix(
            (BenchmarkRow("Toy", {"classic": report_for("Toy", "classic", 0.2),
                                  "diagonal": report_for("Toy", "diagonal", 0.1)}),),
            {"classic": 0, "diagonal": 1},
        )
        with pytest.raises(ValueError):
            emit_report(matrix, fmt)

    def test_unknown_format_rejected(self, suite_matrix):
        with pytest.raises(ValueError):
            emit_report(suite_matrix, "xml")

    def test_csv_parse_emit_is_byte_stable(self, suite_matrix):
        text = emit_report(suite_matrix, "csv")
        parsed = read_report_csv(text)
        rows: dict[str, dict] = {}
        order: list[str] = []
        for record in parsed:
            name = record["dataset"]
            if name not in order:
                order.append(name)
            rows.setdefault(name, {})[record["scheme"]] = EvaluationReport(
                dataset=name,
                scheme=record["scheme"],
                alpha=record["alpha_chosen"],
                m=record["m"],
                train_error=record["train_error"],
                test_error=record["test_error"],
                misclassified=record["misclassified"],
                total=record["total"],
            )
        rebuilt_rows = tuple(BenchmarkRow(name, rows[name]) for name in order)
        wins = dict.fromkeys(SCHEMES, 0)
        for row in rebuilt_rows:
            best = min(r.test_error for r in row.reports.values())
            for scheme, report in row.reports.items():
                if report.test_error == best:
                    wins[scheme] += 1
        rebuilt = BenchmarkMatrix(rebuilt_rows, wins)
        assert emit_report(rebuilt, "csv") == text

    def test_read_rejects_foreign_header(self):
        with pytest.raises(ValueError):
            read_report_csv("alpha,beta\n1,2\n")

    @pytest.mark.parametrize("row, message", [
        ("Toy,split,3,4,0.0,0.2,2,10", "line 3: expected 9 fields, got 8"),
        ("Toy,split,3,4,0.0,0.2,2,10,true,7", "line 3: expected 9 fields, got 10"),
        ("Toy,split,3,4,0.0,0.2,2,10,True", "line 3: is_row_min must be true or false, got 'True'"),
        ("Toy,split,3,4,0.0,0.2,2,10,", "line 3: is_row_min must be true or false, got ''"),
        ("Toy,split,x,4,0.0,0.2,2,10,true", "line 3: invalid literal for int() with base 10: 'x'"),
    ], ids=["missing-field", "extra-field", "capitalized-flag", "empty-flag", "non-numeric-cell"])
    def test_read_rejects_malformed_row_naming_its_line(self, row, message):
        text = ",".join(CSV_COLUMNS) + "\nToy,classic,3,4,0.0,0.2,2,10,true\n" + row + "\n"
        with pytest.raises(ValueError, match=re.escape(message)):
            read_report_csv(text)

    def test_read_skips_blank_lines(self, suite_matrix):
        text = emit_report(suite_matrix, "csv")
        assert read_report_csv(text.replace("\n", "\n\n")) == read_report_csv(text)


# ----------------------------------------------------------------- properties

_PERMUTATION_CACHE: dict = {}


def _cached_suite():
    if not _PERMUTATION_CACHE:
        from pathlib import Path

        root = Path(__file__).parent / "fixtures" / "suite"
        pairs = [load_dataset_pair(root / name) for name in ("Steps", "Ramps", "Bumps")]
        config = BenchmarkConfig(alphabet_range=tuple(range(3, 7)))
        _PERMUTATION_CACHE["suite"] = (pairs, config, run_benchmark(pairs, config))
    return _PERMUTATION_CACHE["suite"]


@pytest.mark.properties
@settings(max_examples=200)
@given(st.permutations([0, 1, 2]))
def test_listing_order_only_permutes_rows(order):
    pairs, config, baseline = _cached_suite()
    matrix = run_benchmark([pairs[i] for i in order], config)
    assert [r.dataset for r in matrix.rows] == [pairs[i].name for i in order]
    by_name = {r.dataset: r for r in baseline.rows}
    for row in matrix.rows:
        assert row.reports == by_name[row.dataset].reports
    assert matrix.win_counts == baseline.win_counts
