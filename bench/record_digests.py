"""Record the report digests that ``run.py`` checks the matrix workloads against.

    python3 bench/record_digests.py FIRST_SEED LAST_SEED

For every seed in the inclusive range and each of ``tall`` and ``wide``
it generates the inputs, makes one ``trendsax benchmark`` call exactly as
a timed run does, and stores the sha256 of the report CSV in
``bench/digests.json``.  Re-record only when a change is meant to alter
the reports, and say so in the change.
"""

import json
import shutil
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

import measure  # noqa: E402  -- needs src on the path
from gen import MATRIX_SHAPES, write_matrix_workload  # noqa: E402


def main(argv: list[str]) -> int:
    first, last = int(argv[0]), int(argv[1])
    path = BENCH / "digests.json"
    table = json.loads(path.read_text())
    work = BENCH / "_work" / "record"
    for workload in MATRIX_SHAPES:
        for seed in range(first, last + 1):
            shutil.rmtree(work, ignore_errors=True)
            write_matrix_workload(workload, seed, work / "data")
            call = measure.matrix_call(work)
            if call["status"] != 0:
                print(f"{workload} seed {seed}: trendsax benchmark exited with {call['status']}")
                return 1
            table.setdefault(workload, {})[str(seed)] = call["sha256"]
            table = {w: dict(sorted(d.items(), key=lambda kv: int(kv[0])))
                     for w, d in sorted(table.items())}
            path.write_text(json.dumps(table, indent=1) + "\n")
            print(f"{workload} {seed} {call['sha256']}", flush=True)
    shutil.rmtree(work, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
