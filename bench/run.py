"""trendsax benchmark: generate a workload's inputs, measure, check, report.

    python3 bench/run.py --workload {tall,wide,stream} --seed N --seconds S --trace {0,1}

Run from anywhere inside a checkout; the library is imported from its
``src`` directory.  The inputs are generated from ``--seed`` into a
scratch directory under ``bench/_work`` that is removed at exit.  Every
run makes fresh measuring processes (``measure.py``): a few that only
set up, for the median set-up time, then one that drives the workload.

With ``--trace 0`` the run measures the end-to-end metrics for
``--seconds`` seconds.  With ``--trace 1`` it does a fixed amount of work
once untraced and once with the span recorder of ``spans.py`` installed,
and reports the per-layer metrics; their counts repeat exactly for a
seed.  The human-readable lines name every metric with its unit and
sample count and the machine facts; the last line is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

sys.path.insert(0, str(BENCH))
import numpy  # noqa: E402

from gen import ALPHAS, MATRIX_SHAPES, RATIO, write_matrix_workload  # noqa: E402

WORKLOADS = ("tall", "wide", "stream")
SCHEMES = ("classic", "overlap", "intertwine", "split")
REPORT_COLUMNS = ["dataset", "scheme", "alpha_chosen", "m", "train_error", "test_error",
                  "misclassified", "total", "is_row_min"]
# fresh processes that only set up; with the measuring process itself
# they give the median set-up time
SETUP_PROBES = 8
# the whole run must end well inside 180 s
DEADLINE_S = 170.0

PER_LAYER = (
    ("dataset.load_ucr.calls", "count"),
    ("dataset.load_ucr.busy_s", "s"),
    ("dataset.values_parsed", "count"),
    ("core.znormalize.busy_s", "s"),
    ("core.paa.calls", "count"),
    ("core.paa.busy_s", "s"),
    ("core.symbolize.busy_s", "s"),
    ("core.make_alphabet_table.busy_s", "s"),
    ("segmentation.segment.calls", "count"),
    ("segmentation.segment.busy_s", "s"),
    ("classify.evaluate.calls", "count"),
    ("classify.evaluate.self_s", "s"),
    ("distance.pair_positions", "count"),
    ("distance.pair_positions_per_s", "1/s"),
    ("classify.alpha_candidates", "count"),
    ("classify.alpha_useful_ratio", "ratio"),
    ("classify.nn1.busy_s", "s"),
    ("classify.tune_alphabet.busy_s", "s"),
    ("distance.mindist.calls", "count"),
    ("distance.mindist.busy_s", "s"),
    ("distance.euclidean.busy_s", "s"),
    ("distance.verify_lower_bound.self_s", "s"),
    ("distance.bound_violations", "count"),
    ("benchmark.run_benchmark.self_s", "s"),
    ("benchmark.emit_report.busy_s", "s"),
    ("benchmark.error_rows", "count"),
    ("cli.main.self_s", "s"),
    ("trace.spans", "count"),
    ("trace.untraced_s", "s"),
    ("trace.overhead_s", "s"),
)


class RunFailed(Exception):
    """The benchmark could not produce a result."""


def parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


class Runner:
    """Starts measuring processes for one run and keeps it inside its deadline."""

    def __init__(self, args: argparse.Namespace, work: Path):
        self.args = args
        self.work = work
        self.deadline = time.monotonic() + DEADLINE_S
        self.env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            p for p in (str(SRC), os.environ.get("PYTHONPATH", "")) if p))

    def measure(self, mode: str) -> dict:
        argv = [sys.executable, str(BENCH / "measure.py"), mode, self.args.workload,
                str(self.args.seed), repr(self.args.seconds), str(self.work)]
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise RunFailed("out of time before the measuring process started")
        try:
            subprocess.run(argv, env=self.env, check=True, timeout=remaining,
                           stdout=subprocess.DEVNULL)
        except subprocess.TimeoutExpired:
            raise RunFailed(f"measuring process ({mode}) exceeded the run deadline") from None
        except subprocess.CalledProcessError as exc:
            raise RunFailed(f"measuring process ({mode}) exited with {exc.returncode}") from None
        return json.loads((self.work / f"{mode}.json").read_text())


# -- output checks -------------------------------------------------------------

def report_defects(workload: str, text: str) -> tuple[list[str], int]:
    """Reasons the report CSV is not a well-formed matrix for ``workload``,
    and the number of cells missing from it (datasets that failed)."""
    rows = list(csv.reader(io.StringIO(text)))
    if not rows or rows[0] != REPORT_COLUMNS or any(len(r) != len(REPORT_COLUMNS) for r in rows):
        return ["the report is not a CSV with the expected columns"], 0
    body = {(r[0], r[1]): r for r in rows[1:]}
    defects, missing = [], 0
    for name, _, n_test, n, _ in MATRIX_SHAPES[workload]:
        cells = [body.get((name, scheme)) for scheme in SCHEMES]
        if None in cells:
            missing += cells.count(None)
            continue
        try:
            best = min(float(c[5]) for c in cells)
            for c in cells:
                alpha, m, miss, total = int(c[2]), int(c[3]), int(c[6]), int(c[7])
                if alpha not in ALPHAS or m != n // RATIO or total != n_test or not 0 <= miss <= total:
                    defects.append(f"{name}/{c[1]}: alpha, m or counts out of range")
                if float(c[5]) != miss / total or not 0.0 <= float(c[4]) <= 1.0:
                    defects.append(f"{name}/{c[1]}: error rates disagree with the counts")
                if (c[8] == "true") != (float(c[5]) == best):
                    defects.append(f"{name}/{c[1]}: is_row_min is wrong")
        except ValueError:
            defects.append(f"{name}: a numeric field does not parse")
    return defects, missing


def check_matrix(workload: str, seed: int, calls: list[dict], report: Path) -> tuple[int, int, list[str]]:
    """Attempted cells, failed cells and notes for the calls of one run."""
    attempted = len(MATRIX_SHAPES[workload]) * len(SCHEMES) * len(calls)
    expected = json.loads((BENCH / "digests.json").read_text()).get(workload, {}).get(str(seed))
    digests = {c["sha256"] for c in calls}
    notes = [f"report sha256 {', '.join(sorted(map(str, digests)))}"
             + (" (matches the recorded digest)" if digests == {expected} else "")]
    if expected is None:
        notes.append(f"no digest recorded for seed {seed}; checked by repeat and structure")
    problems, missing = report_defects(workload, report.read_text()) if report.exists() else (["no report"], 0)
    if len(digests) != 1 or (expected is not None and digests != {expected}):
        problems.append("report digest differs from the recorded digest or between calls")
    if problems:
        return attempted, attempted, notes + problems
    return attempted, missing * len(calls), notes


def check_stream(loops: list[dict]) -> tuple[int, int, list[str]]:
    attempted = sum(loop["ops"] for loop in loops)
    failed = sum(loop["exceptions"] + loop["violations"] + loop["wrong_queries"] for loop in loops)
    notes = [f"audits violating the bound: {sum(loop['violations'] for loop in loops)}; "
             f"sampled nn1 labels differing from a mindist scan: "
             f"{sum(loop['wrong_queries'] for loop in loops)} of "
             f"{sum(loop['checked_queries'] for loop in loops)}"]
    return attempted, failed, notes


# -- metrics -------------------------------------------------------------------

def percentile_line(name: str, samples: list[float], q: float) -> str:
    value, beyond = nearest_rank(samples, q)
    return f"{name:<22} {value * 1e6:12.1f} us   (n={len(samples)}, {beyond} beyond)"


def nearest_rank(samples: list[float], q: float) -> tuple[float, int]:
    """The ``q`` quantile of ``samples`` by nearest rank, and how many lie beyond it."""
    ordered = sorted(samples)
    index = max(0, math.ceil(q * len(ordered)) - 1)
    return ordered[index], len(ordered) - index - 1


def end_to_end(workload: str, setups: list[float], main: dict, detail: list[str]) -> dict:
    """The gated metrics, the same three on every workload, plus detail lines.

    ``latency_ms`` is the median ``trendsax benchmark`` call on tall and
    wide.  On stream it is the 1st percentile of the query+audit round:
    the host switches between a fast and a slow state every few seconds
    and drifts between mostly-fast and mostly-slow spells over minutes.
    A median, or a mean such as ops per second, of millisecond rounds
    follows those shares; the 1st percentile stays in the fast state as
    long as a hundredth of the run has it, and moves only with the code.
    """
    if workload == "stream":
        latency_ms = nearest_rank(main["round_s"], 0.01)[0] * 1e3
        detail.append(f"{'stream_ops_per_s':<22} {main['ops'] / main['loop_s']:12.1f} 1/s  "
                      f"({main['ops']} ops in {main['loop_s']:.2f} s)")
        for kind in ("round", "query", "audit"):
            for q in (0.01, 0.1, 0.5, 0.99):
                detail.append(percentile_line(f"{kind}_p{round(q * 100)}", main[f"{kind}_s"], q))
    else:
        seconds = [c["seconds"] for c in main["calls"]]
        latency_ms = statistics.median(seconds) * 1e3
        detail.append(f"{'matrix_s':<22} {statistics.median(seconds):12.4f} s    "
                      f"(median of n={len(seconds)} calls: {', '.join(f'{s:.3f}' for s in seconds)})")
    detail.append(f"{'setup_s samples':<22} {', '.join(f'{s:.4f}' for s in setups)}")
    return {
        "setup_s": (statistics.median(setups), "s"),
        "latency_ms": (latency_ms, "ms"),
        "peak_rss_mb": (main["peak_rss_mb"], "MB"),
    }


def per_layer(result: dict) -> dict:
    layers = dict(result["layers"])
    self_s = layers.get("classify.evaluate.self_s", 0.0)
    layers["distance.pair_positions_per_s"] = layers.get("distance.pair_positions", 0) / self_s if self_s else 0.0
    candidates = layers.get("classify.alpha_candidates", 0)
    layers["classify.alpha_useful_ratio"] = layers.get("classify.alpha_kept", 0) / candidates if candidates else 0.0
    layers["trace.untraced_s"] = result["untraced_s"]
    layers["trace.overhead_s"] = result["traced_s"] - result["untraced_s"]
    return {name: (layers.get(name, 0), unit) for name, unit in PER_LAYER}


def layer_checks(workload: str, result: dict, metrics: dict) -> list[str]:
    """The layer each workload is meant to stress, as read from the trace."""
    layers = result["layers"]
    if workload == "tall":
        top = max((k for k in layers if k.endswith(".self_s")), key=layers.get)
        return [f"largest self time: {top} ({layers[top]:.3f} s)"]
    if workload == "wide":
        busy = metrics["dataset.load_ucr.busy_s"][0]
        return [f"load_ucr busy / matrix_s: {busy / layers['cli.main.busy_s']:.3f} of the traced call, "
                f"{busy / result['untraced_s']:.3f} of the untraced one"]
    spans = [k for k in ("dataset.load_ucr.calls", "classify.evaluate.calls") if layers.get(k)]
    return [f"load_ucr or evaluate spans on stream: {', '.join(spans) or 'none'}"]


def machine_facts() -> list[str]:
    model = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return [f"machine: nproc={os.cpu_count()} cpu={model!r} python={platform.python_version()} "
            f"numpy={numpy.__version__}"]


# -- run -----------------------------------------------------------------------

def run(args: argparse.Namespace, work: Path) -> tuple[dict, int, int, list[str]]:
    runner = Runner(args, work)
    matrix = args.workload != "stream"
    if matrix:
        write_matrix_workload(args.workload, args.seed, work / "data")
    detail = machine_facts()
    runner.measure("setup")  # untimed: compiles the library's bytecode in a fresh checkout
    if args.trace:
        result = runner.measure("trace")
        metrics = per_layer(result)
        if matrix:
            attempted, failed, notes = check_matrix(args.workload, args.seed, result["calls"],
                                                    work / "report.csv")
        else:
            attempted, failed, notes = check_stream([result["untraced"], result["traced"]])
        notes += layer_checks(args.workload, result, metrics)
    else:
        setups = [runner.measure("setup")["setup_s"] for _ in range(SETUP_PROBES)]
        main = runner.measure("time")
        setups.append(main["setup_s"])
        metrics = end_to_end(args.workload, setups, main, detail)
        if matrix:
            attempted, failed, notes = check_matrix(args.workload, args.seed, main["calls"],
                                                    work / "report.csv")
        else:
            attempted, failed, notes = check_stream([main])
    return metrics, attempted, failed, detail + notes


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    if not (SRC / "trendsax" / "__init__.py").is_file():
        print(f"error: {SRC / 'trendsax'} not found; run inside a trendsax checkout", file=sys.stderr)
        return 2
    work = BENCH / "_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        metrics, attempted, failed, lines = run(args, work)
    except RunFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for line in lines:
        print(line)
    for name, (value, unit) in metrics.items():
        print(f"{name:<36} {value:>16.6g} {unit}")
    print(f"{'error_rate':<36} {failed / attempted:>16.6g} (failed {failed} of {attempted} attempted)")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
