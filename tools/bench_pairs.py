"""Run ``bench/run.py`` on two checkouts in alternating order and write ``BENCH_<label>.json``.

    python3 tools/bench_pairs.py --parent DIR --change DIR --label NAME \\
        --workloads stream,tall,wide --seeds FIRST-LAST [--out DIR]

Each checkout runs its own ``bench/run.py`` from its own directory, one
run at a time, for the ``run_seconds`` of the change's ``BENCHMARK.json``.
Within each workload the seeds run in the order given; at the seed in
position i the parent runs first when i is even and the change runs
first when i is odd.  The summary gives, per workload and end-to-end
metric of ``BENCHMARK.json``, the median and quartiles
(numpy.percentile 25 and 75, linear interpolation) of each side, the
change of the median, and in how many pairs the change was better.  Three
verdicts follow: ``gain_rule_met``, the change is better in at least
9 of 10 pairs and its median beats the parent's by more than the
parent's interquartile range; ``within_bound``, the change's median
is worse than the parent's by no more than the metric's relative
``bound``; and ``unresolved``, either side's interquartile range is
wider than ``bound`` times that side's lower quartile, so the runs
spread too widely to call the metric unchanged, unless every change run
is better than every parent run.  The lower quartile, not the median,
sees a side split between two levels about ``bound`` apart, as ``wide``'s
two ``peak_rss_mb`` modes are.
"""

from __future__ import annotations

import argparse
import json
import platform
import re
import subprocess
import sys
from pathlib import Path

import numpy as np

# lines of run.py's output kept beside each run's JSON result
_KEPT_LINE = re.compile(r"^(machine:|(round|query|audit)_p\d+\s)")


def parse_seeds(text: str) -> list[int]:
    """``"3,5,8-10"`` as ``[3, 5, 8, 9, 10]``; ValueError for a descending range such as ``"5-3"``."""
    seeds: list[int] = []
    for part in text.split(","):
        low, _, high = part.partition("-")
        low, high = int(low), int(high or low)
        if high < low:
            raise ValueError(f"seed range {part!r} descends")
        seeds.extend(range(low, high + 1))
    return seeds


def commit_of(checkout: Path) -> str:
    done = subprocess.run(["git", "-C", str(checkout), "rev-parse", "--short", "HEAD"],
                          capture_output=True, text=True)
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def bench_command(workload: str, seed: int | str, seconds: float) -> list[str]:
    return [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0"]


def run_one(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    done = subprocess.run(bench_command(workload, seed, seconds), cwd=checkout,
                          capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        result = {"correct": False, "attempted": 0, "failed": 0, "metrics": {},
                  "exit_code": done.returncode, "stderr": done.stderr[-2000:]}
    return {"result": result, "lines": [line for line in lines if _KEPT_LINE.match(line)]}


def quartiles(values: list[float]) -> list[float]:
    return [round(float(q), 4) for q in np.percentile(values, [25, 75])]


def summarize(runs: list[dict], metrics: list[dict]) -> dict:
    """Per workload: pairs, seeds, correctness, and per metric both sides' medians, quartiles, wins and verdicts."""
    summary: dict = {}
    for workload in dict.fromkeys(run["workload"] for run in runs):
        sides = {side: [run for run in runs if run["workload"] == workload and run["side"] == side]
                 for side in ("parent", "change")}
        out = summary[workload] = {
            "pairs": len(sides["change"]),
            "seeds": [run["seed"] for run in sides["change"]],
            "all_correct": all(run["result"]["correct"] for side in sides.values() for run in side),
            "failed": {side: sum(run["result"]["failed"] for run in rows) for side, rows in sides.items()},
        }
        for metric in metrics:
            name = metric["name"]
            values = {side: [run["result"]["metrics"].get(name, {}).get("value", float("nan")) for run in rows]
                      for side, rows in sides.items()}
            parent, change = (np.median(values[side]) for side in ("parent", "change"))
            lower = metric["better"] == "lower"
            wins = sum((c < p) if lower else (c > p) for p, c in zip(values["parent"], values["change"]))
            q1, q3 = np.percentile(values["parent"], [25, 75])
            c1, c3 = np.percentile(values["change"], [25, 75])
            gain = (parent - change) if lower else (change - parent)
            wide = q3 - q1 > metric["bound"] * q1 or c3 - c1 > metric["bound"] * c1
            separated = (max(values["change"]) < min(values["parent"]) if lower
                         else min(values["change"]) > max(values["parent"]))
            out[name] = {
                "parent_median": round(float(parent), 4),
                "parent_q1_q3": quartiles(values["parent"]),
                "change_median": round(float(change), 4),
                "change_q1_q3": quartiles(values["change"]),
                "median_change": f"{(change / parent - 1) * 100:+.1f}%",
                "change_better_in": f"{wins}/{len(values['change'])}",
                "gain_rule_met": bool(10 * wins >= 9 * len(values["change"]) and gain > q3 - q1),
                "within_bound": bool(-gain <= metric["bound"] * parent),
                "unresolved": bool(wide and not separated),
                "parent": [round(v, 4) for v in values["parent"]],
                "change": [round(v, 4) for v in values["change"]],
            }
    return summary


def parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", type=Path, required=True, help="checkout of the parent commit")
    parser.add_argument("--change", type=Path, required=True, help="checkout of the change")
    parser.add_argument("--label", required=True, help="names the output file BENCH_<label>.json")
    parser.add_argument("--workloads", default="stream,tall,wide", help="comma-separated workloads")
    parser.add_argument("--seeds", type=parse_seeds, required=True, help="seeds, e.g. 120-129 or 1,4,7")
    parser.add_argument("--out", type=Path, default=Path("."), help="directory of the output file")
    return parser.parse_args(argv)


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    checkouts = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    benchmark = json.loads((checkouts["change"] / "BENCHMARK.json").read_text())
    seconds = benchmark["run_seconds"]
    runs = []
    for workload in args.workloads.split(","):
        for i, seed in enumerate(args.seeds):
            for side in ("parent", "change") if i % 2 == 0 else ("change", "parent"):
                run = run_one(checkouts[side], workload, seed, seconds)
                runs.append({"workload": workload, "seed": seed, "side": side, **run})
                value = {name: round(m["value"], 4) for name, m in run["result"]["metrics"].items()}
                print(f"{workload} seed {seed} {side}: correct={run['result']['correct']} {value}",
                      file=sys.stderr, flush=True)
    machine = next((line for run in runs for line in run["lines"] if line.startswith("machine:")),
                   f"machine: python={platform.python_version()} numpy={np.__version__}")
    report = {
        "label": args.label,
        "parent": commit_of(checkouts["parent"]),
        "change": commit_of(checkouts["change"]),
        "command": " ".join(["python3", *bench_command("W", "S", seconds)[1:]]),
        "machine": machine.removeprefix("machine: "),
        "order": ("within each workload the seeds ran in the order listed; the parent ran first at "
                  "even positions and the change first at odd positions; one run at a time"),
        "summary": summarize(runs, benchmark["end_to_end"]),
        "runs": runs,
    }
    path = args.out / f"BENCH_{args.label}.json"
    path.write_text(json.dumps(report, indent=1) + "\n")
    print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
