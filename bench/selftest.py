"""Self-test of the benchmark: two traced runs of a workload agree exactly.

    python3 bench/selftest.py [WORKLOAD ...]      (default: tall wide stream)

Runs ``run.py --trace 1`` twice per workload at one seed.  It fails
unless both runs are correct, the work counts in ``COUNTS`` are identical,
and on tall and wide the report digests are identical.  A tall run takes
about a minute.
"""

import json
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
SEED = 0
COUNTS = (
    "dataset.values_parsed",
    "core.paa.calls",
    "segmentation.segment.calls",
    "distance.pair_positions",
    "distance.mindist.calls",
    "classify.alpha_candidates",
)


def traced_run(workload: str) -> tuple[dict, list[str]]:
    """The result object and the report digests printed by one traced run."""
    argv = [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(SEED),
            "--seconds", "1", "--trace", "1"]
    lines = subprocess.run(argv, check=True, capture_output=True, text=True, timeout=180).stdout.splitlines()
    digests = [line.split()[2] for line in lines if line.startswith("report sha256 ")]
    return json.loads(lines[-1]), digests


def main(argv: list[str]) -> int:
    failures = 0
    for workload in argv or ("tall", "wide", "stream"):
        (first, first_digests), (second, second_digests) = traced_run(workload), traced_run(workload)
        problems = [f"run {i} is not correct" for i, r in enumerate((first, second), 1) if not r["correct"]]
        problems += [
            f"{name}: {first['metrics'][name]['value']} != {second['metrics'][name]['value']}"
            for name in COUNTS
            if first["metrics"][name]["value"] != second["metrics"][name]["value"]
        ]
        if workload != "stream" and (not first_digests or first_digests != second_digests):
            problems.append(f"report digests differ: {first_digests} vs {second_digests}")
        counts = ", ".join(f"{name}={first['metrics'][name]['value']}" for name in COUNTS)
        print(f"{workload}: {'FAIL' if problems else 'ok'} ({counts})")
        for problem in problems:
            print(f"  {problem}")
        failures += bool(problems)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
