import json
import os
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
from trendsax.dataset import DatasetPair, load_dataset_pair
from trendsax.segmentation import SCHEMES


class WorkerKiller(DatasetPair):
    """A dataset whose unpickling ends the worker process that receives it."""

    def __reduce__(self):
        return os._exit, (1,)


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


class TestConfig:
    def test_defaults(self):
        config = BenchmarkConfig()
        assert config.schemes == SCHEMES
        assert config.alphabet_range == tuple(range(3, 21))
        assert config.jobs == 1

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

    def test_tied_row_marks_every_winner(self):
        reports = {
            "classic": report_for("Toy", "classic", 0.2),
            "overlap": report_for("Toy", "overlap", 0.2),
            "intertwine": report_for("Toy", "intertwine", 0.5),
            "split": report_for("Toy", "split", 0.2),
        }
        matrix = BenchmarkMatrix(
            (BenchmarkRow("Toy", reports),),
            {"classic": 1, "overlap": 1, "intertwine": 0, "split": 1},
        )
        rows = read_report_csv(emit_report(matrix, "csv"))
        flags = {r["scheme"]: r["is_row_min"] for r in rows}
        assert flags == {"classic": True, "overlap": True, "intertwine": False, "split": True}

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
