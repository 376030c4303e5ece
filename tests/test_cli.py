import argparse
import hashlib
import json
import shutil
import subprocess
import sys

import pytest

from trendsax import cli
from trendsax.benchmark import read_report_csv
from trendsax.cli import _parse_alphabet_range, build_parser, main
from trendsax.distance import LowerBoundReport
from trendsax.segmentation import SCHEMES


# an --alphabet-range that no run can use, and the error it must print
BAD_ALPHABET_RANGES = pytest.mark.parametrize("alphas, message", [
    ("5:3", "alphabet range is empty"),
    ("2:30", f"alphabet sizes must lie in [2, 26], got {list(range(2, 31))}"),
], ids=["empty", "above-max"])


def run_cli(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestParsing:
    def test_alphabet_range_forms(self):
        assert _parse_alphabet_range("5") == (5,)
        assert _parse_alphabet_range("3:6") == (3, 4, 5, 6)
        with pytest.raises(Exception):
            _parse_alphabet_range("3:x")

    def test_unknown_subcommand_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(["frobnicate"])
        assert exc.value.code == 2

    def test_unknown_flag_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(["convert", "x.txt", "--no-such-flag"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("flag", [["--ratio", "0"], ["--ratio", "-3"], ["--word-count", "0"]])
    def test_non_positive_word_length_fails_cleanly(self, flag, mini_dir, capsys):
        expected = "error: word_count" if flag[0] == "--word-count" else "error: ratio"
        for command in (["convert", str(mini_dir / "Mini_TRAIN.txt")], ["verify-bound"],
                        ["evaluate", str(mini_dir)], ["benchmark", str(mini_dir)]):
            code, out, err = run_cli(command + flag, capsys)
            assert code == 1, command
            assert out == ""
            assert err == f"{expected} must be positive\n", command

    @pytest.mark.parametrize("command", [["convert", "absent.txt"], ["evaluate", "absent"],
                                         ["benchmark", "absent"]])
    def test_bad_scheme_fails_before_any_file_is_read(self, command, tmp_path, capsys):
        code, out, err = run_cli([command[0], str(tmp_path / command[1]), "--scheme", "diagonal"], capsys)
        assert code == 1
        assert out == ""
        assert err == f"error: unknown scheme 'diagonal'; expected one of {SCHEMES}\n"

    @pytest.mark.parametrize("command", [["verify-bound"], ["benchmark", "absent"]])
    def test_repeated_scheme_fails_before_any_work(self, command, tmp_path, capsys):
        paths = [str(tmp_path / arg) for arg in command[1:]]
        code, out, err = run_cli([command[0], *paths, "--scheme", "classic,split,classic"], capsys)
        assert code == 1
        assert out == ""
        assert err == "error: schemes must be distinct, got classic, split, classic\n"

    def test_only_multi_scheme_commands_offer_all_and_lists(self):
        commands = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
        helps = {name: next(a.help for a in sub._actions if a.dest == "scheme")
                 for name, sub in commands.choices.items()}
        names = ", ".join(SCHEMES)
        for name in ("convert", "evaluate"):
            assert helps[name] == f"segmentation scheme: one of {names}"
        for name in ("verify-bound", "benchmark"):
            assert helps[name] == f"segmentation schemes: 'all' or a comma-separated list of {names}"

    def test_word_count_and_ratio_are_exclusive(self):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(
                ["convert", "x.txt", "--word-count", "4", "--ratio", "8"]
            )
        assert exc.value.code == 2


class TestConvert:
    def test_text_words_for_mini(self, mini_dir, capsys):
        code, out, _ = run_cli(
            ["convert", str(mini_dir / "Mini_TRAIN.txt"), "--alphabet", "3"], capsys
        )
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 6
        for expected_index, line in enumerate(lines):
            index, label, word = line.split("\t")
            assert int(index) == expected_index
            assert word == {"1": "aacc", "2": "ccaa"}[label]

    def test_csv_format(self, mini_dir, capsys):
        code, out, _ = run_cli(
            ["convert", str(mini_dir / "Mini_TRAIN.txt"), "--alphabet", "3",
             "--format", "csv"], capsys
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "index,label,word"
        assert len(lines) == 7

    def test_json_format_and_out_file(self, mini_dir, tmp_path, capsys):
        target = tmp_path / "words.json"
        code, out, _ = run_cli(
            ["convert", str(mini_dir / "Mini_TEST.txt"), "--alphabet", "3",
             "--format", "json", "--out", str(target)], capsys
        )
        assert code == 0
        assert out == ""
        payload = json.loads(target.read_text())
        assert [r["index"] for r in payload] == list(range(6))
        for record in payload:
            assert record["word"] == {1: "aacc", 2: "ccaa"}[record["label"]]

    def test_scheme_changes_words(self, suite_dir, capsys):
        # ramp-shaped series give scheme-sensitive words; the flat steps
        # of the mini fixture symbolize identically under all four
        ramps = str(suite_dir / "Ramps" / "Ramps_TRAIN.txt")
        _, classic_out, _ = run_cli(["convert", ramps, "--alphabet", "3"], capsys)
        code, intertwine_out, _ = run_cli(
            ["convert", ramps, "--alphabet", "3", "--scheme", "intertwine"], capsys
        )
        assert code == 0
        assert intertwine_out != classic_out

    def test_multi_scheme_rejected(self, mini_dir, capsys):
        code, _, err = run_cli(
            ["convert", str(mini_dir / "Mini_TRAIN.txt"), "--scheme", "all"], capsys
        )
        assert code == 1
        assert "exactly one scheme" in err

    def test_missing_file_fails_cleanly(self, tmp_path, capsys):
        code, _, err = run_cli(
            ["convert", str(tmp_path / "absent.txt")], capsys
        )
        assert code == 1
        assert err.startswith("error:")

    def test_bad_alphabet_fails_before_the_file_is_read(self, tmp_path, capsys):
        code, out, err = run_cli(["convert", str(tmp_path / "missing.txt"), "--alphabet", "30"], capsys)
        assert code == 1
        assert out == ""
        assert err == "error: alphabet size must be in [2, 26], got 30\n"


class TestVerifyBound:
    def test_default_schemes_pass(self, capsys):
        code, out, _ = run_cli(
            ["verify-bound", "--pairs", "50", "--length", "64", "--seed", "7"], capsys
        )
        assert code == 0
        assert out.startswith("ok: 200 checks (50 pairs x 4 schemes)")
        assert "min slack=" in out

    def test_single_scheme_counts(self, capsys):
        code, out, _ = run_cli(
            ["verify-bound", "--scheme", "split", "--pairs", "25",
             "--length", "32", "--alphabet", "8"], capsys
        )
        assert code == 0
        assert "25 checks (25 pairs x 1 schemes)" in out

    def test_bad_scheme_fails(self, capsys):
        code, _, err = run_cli(["verify-bound", "--scheme", "diagonal"], capsys)
        assert code == 1
        assert "unknown scheme" in err

    def test_a_violation_is_reported_and_fails(self, monkeypatch, capsys):
        monkeypatch.setattr(cli, "verify_lower_bound", lambda *args: LowerBoundReport(2.0, 1.0))
        code, out, err = run_cli(
            ["verify-bound", "--scheme", "classic", "--pairs", "3", "--length", "8"], capsys
        )
        assert code == 1
        assert err == ""
        assert out == ("VIOLATED: 3 checks (3 pairs x 1 schemes), "
                       "length=8 m=2 alphabet=4 seed=0, min slack=-1\n")

    @pytest.mark.parametrize("pairs", ["0", "-5"])
    def test_non_positive_pairs_fail_cleanly(self, pairs, capsys):
        code, out, err = run_cli(["verify-bound", "--pairs", pairs], capsys)
        assert code == 1
        assert out == ""
        assert err == "error: pairs must be positive\n"

    @pytest.mark.parametrize("length", ["0", "-5"])
    def test_non_positive_length_fails_cleanly(self, length, capsys):
        code, out, err = run_cli(["verify-bound", "--length", length], capsys)
        assert code == 1
        assert out == ""
        assert err == "error: length must be positive\n"


class TestEvaluate:
    def test_json_report_for_mini(self, mini_dir, capsys):
        code, out, _ = run_cli(
            ["evaluate", str(mini_dir), "--scheme", "classic",
             "--alphabet-range", "3:5", "--format", "json"], capsys
        )
        assert code == 0
        record = json.loads(out)
        assert record == {
            "dataset": "mini",
            "scheme": "classic",
            "alpha_chosen": 3,
            "m": 4,
            "train_error": 0.0,
            "test_error": 0.0,
            "misclassified": 0,
            "total": 6,
        }

    def test_csv_report_for_mini(self, mini_dir, capsys):
        code, out, _ = run_cli(
            ["evaluate", str(mini_dir), "--alphabet-range", "3:5", "--format", "csv"], capsys
        )
        assert code == 0
        assert out == (
            "dataset,scheme,alpha_chosen,m,train_error,test_error,misclassified,total\n"
            "mini,classic,3,4,0.0,0.0,0,6\n"
        )

    def test_text_report_lists_fields(self, mini_dir, capsys):
        code, out, _ = run_cli(
            ["evaluate", str(mini_dir), "--alphabet-range", "3:4"], capsys
        )
        assert code == 0
        assert "dataset: mini" in out
        assert "test_error: 0.0" in out

    def test_missing_dataset_dir(self, tmp_path, capsys):
        code, _, err = run_cli(["evaluate", str(tmp_path / "nowhere")], capsys)
        assert code == 1
        assert err.startswith("error:")

    def test_file_given_as_dataset_dir_is_not_a_directory(self, mini_dir, capsys):
        target = mini_dir / "Mini_TRAIN.txt"
        code, out, err = run_cli(["evaluate", str(target)], capsys)
        assert (code, out) == (1, "")
        assert err == f"error: dataset directory {target} is not a directory\n"

    @BAD_ALPHABET_RANGES
    def test_bad_alphabet_range_fails_before_work(self, alphas, message, fixtures_dir, capsys):
        # the range is checked before the (missing) directory is read
        code, out, err = run_cli(
            ["evaluate", str(fixtures_dir / "nonexistent"), "--alphabet-range", alphas], capsys
        )
        assert code == 1
        assert out == ""
        assert err == f"error: {message}\n"


class TestBenchmark:
    def test_discovers_suite_children(self, suite_dir, capsys):
        code, out, _ = run_cli(
            ["benchmark", str(suite_dir), "--alphabet-range", "3:6"], capsys
        )
        assert code == 0
        rows = read_report_csv(out)
        assert [r["dataset"] for r in rows][::4] == ["Bumps", "Ramps", "Steps"]
        assert len(rows) == 12

    def test_discovery_skips_paths_that_hold_no_series_file(self, mini_dir, tmp_path, capsys):
        root = tmp_path / "root"
        shutil.copytree(mini_dir, root / "Coffee")
        (root / "README_TRAIN.md").write_text("not a series file\n")
        (root / "notes_TRAINING").mkdir()
        code, out, err = run_cli(["benchmark", str(root), "--alphabet-range", "3:4"], capsys)
        assert code == 0, err
        assert {r["dataset"] for r in read_report_csv(out)} == {"Coffee"}

    def test_missing_directory_fails_before_any_work(self, tmp_path, capsys):
        missing = tmp_path / "absent"
        code, out, err = run_cli(["benchmark", str(missing)], capsys)
        assert code == 1
        assert out == ""
        assert err == f"error: dataset directory {missing} does not exist\n"

    def test_file_given_as_dataset_dir_is_not_a_directory(self, mini_dir, capsys):
        target = mini_dir / "Mini_TRAIN.txt"
        code, out, err = run_cli(["benchmark", str(target)], capsys)
        assert (code, out) == (1, "")
        assert err == f"error: dataset directory {target} is not a directory\n"

    def test_directory_without_series_files_fails(self, tmp_path, capsys):
        (tmp_path / "empty").mkdir()
        code, out, err = run_cli(["benchmark", str(tmp_path)], capsys)
        assert code == 1
        assert out == ""
        assert err == f"error: {tmp_path}: no *_TRAIN file here or in any subdirectory\n"

    def test_explicit_directory_and_out_file(self, mini_dir, tmp_path, capsys):
        target = tmp_path / "report.csv"
        code, out, _ = run_cli(
            ["benchmark", str(mini_dir), "--alphabet-range", "3:4",
             "--out", str(target)], capsys
        )
        assert code == 0
        assert out == ""
        rows = read_report_csv(target.read_text())
        assert {r["scheme"] for r in rows} == {"classic", "overlap", "intertwine", "split"}
        assert all(r["dataset"] == "mini" for r in rows)

    def test_jobs_byte_identical(self, suite_dir, tmp_path, capsys):
        outputs = []
        for jobs in ("1", "3"):
            target = tmp_path / f"jobs{jobs}.csv"
            code, _, _ = run_cli(
                ["benchmark", str(suite_dir), "--alphabet-range", "3:6",
                 "--jobs", jobs, "--out", str(target)], capsys
            )
            assert code == 0
            outputs.append(target.read_bytes())
        assert outputs[0] == outputs[1]

    def test_failed_dataset_sets_exit_code(self, suite_dir, capsys):
        code, out, err = run_cli(
            ["benchmark", str(suite_dir / "Steps"), "--word-count", "9999",
             "--format", "json"], capsys
        )
        assert code == 1
        assert "error: Steps:" in err
        payload = json.loads(out)
        assert "Steps" in payload["errors"]

    def test_ragged_dataset_costs_one_row(self, suite_dir, tmp_path, capsys):
        root = tmp_path / "suite"
        shutil.copytree(suite_dir, root)
        with (root / "Steps" / "Steps_TEST.txt").open("a") as fh:
            fh.write("1,0.5\n")
        flags = ["--alphabet-range", "3:6"]
        code, clean, _ = run_cli(["benchmark", str(suite_dir), *flags], capsys)
        assert code == 0
        reports = {}
        for jobs in ("1", "2"):
            for fmt in ("csv", "json"):
                code, out, err = run_cli(
                    ["benchmark", str(root), *flags, "--jobs", jobs, "--format", fmt], capsys
                )
                assert code == 1
                assert err.startswith("error: Steps: UcrFormatError: ")
                assert "Steps_TEST.txt:9: row has 1 values, expected 22" in err
                reports[jobs, fmt] = out
        assert reports["1", "csv"] == reports["2", "csv"]
        assert reports["1", "json"] == reports["2", "json"]
        kept = [line for line in clean.splitlines(keepends=True) if not line.startswith("Steps,")]
        assert reports["1", "csv"] == "".join(kept)
        assert [line.split(",")[0] for line in kept[1:]] == ["Bumps"] * 4 + ["Ramps"] * 4
        assert list(json.loads(reports["1", "json"])["errors"]) == ["Steps"]

    @BAD_ALPHABET_RANGES
    def test_bad_alphabet_range_fails_before_work(self, alphas, message, suite_dir, capsys):
        code, out, err = run_cli(["benchmark", str(suite_dir), "--alphabet-range", alphas], capsys)
        assert code == 1
        assert out == ""
        assert err == f"error: {message}\n"

    # sha256 of the fixture-suite report with default flags; a change to
    # any of these is a change to the published report bytes
    @pytest.mark.parametrize("fmt, digest", [
        ("csv", "61ce06e74756d6acb05f7dfe514627ee22a3b728135bf290f13691af57ce6495"),
        ("json", "19c4775390b9760c5e070937596eaf1bd1ccc188e6d46dc48e794413286aeafe"),
        ("text", "bb356a92fe834fa3bb97a7585045c359b63f527fb09ef4144c78ce9ab7fecba0"),
    ])
    def test_suite_report_bytes_are_golden(self, fmt, digest, suite_dir, capsys):
        code, out, _ = run_cli(["benchmark", str(suite_dir), "--format", fmt], capsys)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_text_format(self, mini_dir, capsys):
        code, out, _ = run_cli(
            ["benchmark", str(mini_dir), "--alphabet-range", "3:4",
             "--format", "text"], capsys
        )
        assert code == 0
        assert out.splitlines()[0].split()[0] == "dataset"
        assert out.splitlines()[-1].startswith("wins")


# sha256 of ``convert Mini_TRAIN.txt`` and ``evaluate mini`` with default
# flags, recorded before the CSV writer and the pair scorer were shared
# with the benchmark; a change to any of these is a change to output bytes
@pytest.mark.parametrize("command, fmt, digest", [
    ("convert", "text", "07d790cf9d67f15a6c5dbca3e8b5b87597732d3174c2107045fecef809fd58ba"),
    ("convert", "csv", "074a9c72deaf614f080059621b9aa23fb1bb33eea33385099e19bec3fe1b040a"),
    ("convert", "json", "039e94aeb0143e0658634e05d1683763fa37abf7086d84bb5c6f59a6204b64af"),
    ("evaluate", "text", "87ff86012d2f6a7e63d2b2f1ba42997412de3ee2b143305ea825315a2656f91b"),
    ("evaluate", "csv", "33e180e1ba3253785982181d6fe1c7811440d6a1918dd1bf35343ae695ce006f"),
    ("evaluate", "json", "9140468b728f694dc1820a7ac3bd1e4c82f031314cb5019f72c2c125f4dc0171"),
])
def test_mini_output_bytes_are_golden(command, fmt, digest, mini_dir, capsys):
    target = mini_dir / "Mini_TRAIN.txt" if command == "convert" else mini_dir
    code, out, _ = run_cli([command, str(target), "--format", fmt], capsys)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


class TestEntryPoint:
    def test_module_invocation_matches_in_process(self, mini_dir, capsys, child_env):
        argv = ["convert", str(mini_dir / "Mini_TRAIN.txt"), "--alphabet", "3"]
        _, in_process, _ = run_cli(argv, capsys)
        proc = subprocess.run(
            [sys.executable, "-m", "trendsax", *argv],
            capture_output=True, text=True, timeout=120, env=child_env,
        )
        assert proc.returncode == 0
        assert proc.stdout == in_process
