"""The summary that ``tools/bench_pairs.py`` writes into ``BENCH_<label>.json``."""

import importlib.util
import json
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)

METRICS = [{"name": "latency_ms", "better": "lower", "bound": 0.25},
           {"name": "ops_per_s", "better": "higher", "bound": 0.25}]


def run(seed, side, latency, ops, correct=True, failed=0):
    metrics = {"latency_ms": {"value": latency}, "ops_per_s": {"value": ops}}
    return {"workload": "stream", "seed": seed, "side": side,
            "result": {"correct": correct, "failed": failed, "metrics": metrics}}


@pytest.mark.parametrize("text, seeds", [("7", [7]), ("3,5", [3, 5]), ("8-10", [8, 9, 10]),
                                         ("1,4-5", [1, 4, 5])])
def test_parse_seeds(text, seeds):
    assert bench_pairs.parse_seeds(text) == seeds


@pytest.mark.parametrize("text", ["5-3", "1,9-8"])
def test_parse_seeds_rejects_a_descending_range(text):
    with pytest.raises(ValueError, match="descends"):
        bench_pairs.parse_seeds(text)


def pairs(parent, change):
    return [run(seed, side, latency, 1000 / latency) for seed, (p, c) in enumerate(zip(parent, change))
            for side, latency in (("parent", p), ("change", c))]


def verdicts(parent, change):
    summary = bench_pairs.summarize(pairs(parent, change), METRICS)["stream"]
    return [(summary[name]["gain_rule_met"], summary[name]["within_bound"]) for name in ("latency_ms", "ops_per_s")]


def test_gain_rule_needs_nine_wins_in_ten_and_a_median_gap_beyond_the_parent_iqr():
    parent = [10.0, 11.0, 12.0, 13.0, 14.0, 15.0, 16.0, 17.0, 18.0, 19.0]  # median 14.5, IQR 4.5
    # 9 wins and a median 5 lower: met in both directions
    assert verdicts(parent, [p - 5 for p in parent[:9]] + [19.5]) == [(True, True)] * 2
    # 8 wins of 10 are too few, however far the median moves
    assert verdicts(parent, [p - 5 for p in parent[:8]] + [19.5, 20.0]) == [(False, True)] * 2
    # 10 wins but a median only 1 lower sits inside the parent's IQR
    assert verdicts(parent, [p - 1 for p in parent]) == [(False, True)] * 2


def test_within_bound_compares_the_median_with_the_relative_bound():
    parent = [10.0] * 4
    # 25% slower is at the bound; a little more is beyond it
    assert verdicts(parent, [12.5] * 4)[0] == (False, True)
    assert verdicts(parent, [12.6] * 4)[0] == (False, False)
    # the higher-is-better rate is judged the other way round
    assert verdicts(parent, [10 / 1.34] * 4)[1] == (True, True)
    assert verdicts(parent, [10 * 1.34] * 4)[1] == (False, False)


def unresolved(parent, change, metric):
    runs = [{"workload": "stream", "seed": seed, "side": side,
             "result": {"correct": True, "failed": 0, "metrics": {metric["name"]: {"value": value}}}}
            for seed, (p, c) in enumerate(zip(parent, change)) for side, value in (("parent", p), ("change", c))]
    return bench_pairs.summarize(runs, [metric])["stream"][metric["name"]]["unresolved"]


PEAK = {"name": "peak_rss_mb", "better": "lower", "bound": 0.2}
MODES = [62.5, 77.8] * 5  # quartiles 62.5 and 77.8: an IQR of 15.3 against 0.2 * median 70.15 = 14.03


def test_a_side_spread_wider_than_the_bound_is_unresolved():
    assert unresolved(MODES, MODES, PEAK)
    assert unresolved([70.0] * 10, MODES, PEAK)
    assert unresolved(MODES, [70.0] * 10, PEAK)


# wide peak_rss_mb as recorded, parent then change, in three changes whose sides fell in
# different allocator modes; each median sits high enough that its IQR stayed under 20% of it
RECORDED_WIDE_PEAKS = {
    "BENCH_lazy_pool.json": (
        [62.6641, 77.7891, 78.0625, 77.7852, 77.8164, 77.7891, 62.8125, 77.7734, 78.043, 64.3672],
        [60.8867, 75.9961, 76.2695, 75.9336, 75.9023, 62.2344, 60.8164, 75.9023, 76.1914, 62.4766]),
    "BENCH_one_grammar.json": (
        [76.1016, 60.6289, 76.1992, 75.8984, 62.3203, 76.4766, 62.3242, 76.0117, 76.0117, 62.9453],
        [75.8164, 60.625, 75.8047, 72.4336, 75.8945, 72.6406, 60.8125, 75.9141, 75.8398, 75.9336]),
    "BENCH_quantile_tails_wide.json": (
        [77.8711, 64.2695, 62.8203, 64.1406, 64.1641, 78.1055, 77.7305, 63.9727, 77.6875, 78.1602],
        [77.9258, 78.0312, 62.8086, 77.75, 77.7969, 78.1094, 77.7773, 63.9102, 77.7227, 78.1094]),
}


@pytest.mark.parametrize("name", RECORDED_WIDE_PEAKS)
def test_sides_split_across_the_wide_memory_modes_are_unresolved(name):
    parent, change = RECORDED_WIDE_PEAKS[name]
    assert unresolved(parent, change, PEAK)


def test_tight_sides_are_resolved():
    assert not unresolved([70.0, 71.0] * 5, [75.0, 76.0] * 5, PEAK)


def test_wide_sides_are_resolved_when_every_change_run_is_better():
    assert not unresolved([80.0, 95.0] * 5, [60.0, 75.0] * 5, PEAK)
    # one overlap between the sides leaves it unresolved
    assert unresolved([80.0, 95.0] * 5, [60.0, 75.0] * 4 + [60.0, 81.0], PEAK)
    rate = {"name": "ops_per_s", "better": "higher", "bound": 0.2}
    assert not unresolved([60.0, 75.0] * 5, [80.0, 95.0] * 5, rate)
    assert unresolved([80.0, 95.0] * 5, [60.0, 75.0] * 5, rate)


def test_summary_counts_wins_in_each_metric_direction():
    runs = [run(1, "parent", 2.0, 10.0), run(1, "change", 1.0, 12.0),
            run(2, "change", 3.0, 9.0, correct=False, failed=2), run(2, "parent", 2.5, 11.0),
            run(3, "parent", 4.0, 10.0), run(3, "change", 4.0, 10.0)]
    summary = bench_pairs.summarize(runs, METRICS)["stream"]
    assert summary["pairs"] == 3 and summary["seeds"] == [1, 2, 3]
    assert summary["all_correct"] is False
    assert summary["failed"] == {"parent": 0, "change": 2}
    latency = summary["latency_ms"]
    assert latency["parent"] == [2.0, 2.5, 4.0] and latency["change"] == [1.0, 3.0, 4.0]
    assert latency["parent_median"] == 2.5 and latency["change_median"] == 3.0
    assert latency["parent_q1_q3"] == [2.25, 3.25]
    assert latency["median_change"] == "+20.0%"
    # a tie counts for neither side
    assert latency["change_better_in"] == "1/3"
    assert summary["ops_per_s"]["change_better_in"] == "1/3"


def test_recorded_command_is_the_command_run_for_the_benchmark_run_length():
    root = SCRIPT.parent.parent
    seconds = json.loads((root / "BENCHMARK.json").read_text())["run_seconds"]
    run_args = bench_pairs.bench_command("W", "S", seconds)[1:]
    assert run_args[run_args.index("--seconds") + 1] == str(seconds)
    assert json.loads((root / "BENCH_nn1_filter.json").read_text())["command"] == " ".join(["python3", *run_args])
