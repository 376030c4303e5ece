"""The library call shapes that the benchmark under ``bench/`` relies on.

``bench/measure.py`` calls the library by position and ``bench/spans.py``
rebinds functions by name and reads their arguments by name, so a
renamed function or a dropped parameter would break the stream workload
or ``--trace 1`` without failing any other test.  ``bench/`` is only
read here, and the stream workload is run once for half a second as a
smoke test; its scratch directory is removed when it exits.  The
``tall`` and ``wide`` reports of seed 0 are made once each, with the
call ``bench/record_digests.py`` makes, and checked against
``bench/digests.json``.
"""

import importlib
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from trendsax.classify import evaluate, nn1, tune_alphabet
from trendsax.distance import verify_lower_bound

BENCH = Path(__file__).resolve().parents[1] / "bench"

# imported without writing a bytecode cache under bench/
sys.path.insert(0, str(BENCH))
dont_write_bytecode, sys.dont_write_bytecode = sys.dont_write_bytecode, True
try:
    import measure
    import spans
    from gen import MATRIX_SHAPES, write_matrix_workload
finally:
    sys.path.remove(str(BENCH))
    sys.dont_write_bytecode = dont_write_bytecode


@pytest.mark.parametrize("module_name, attr", spans.TRACED)
def test_traced_names_resolve_to_callables(module_name, attr):
    assert callable(getattr(importlib.import_module(module_name), attr))


def test_stream_calls_bind():
    # positional calls as bench/measure.py makes them
    inspect.signature(tune_alphabet).bind("train", "scheme", "m")
    inspect.signature(nn1).bind("word", "model.train_words", "model.table")
    inspect.signature(verify_lower_bound).bind("left", "right", "scheme", "m", "alpha")


@pytest.mark.parametrize("fn, observed", [
    (evaluate, {"train", "test", "m", "alphabet_range"}),
    (tune_alphabet, {"alphabet_range"}),
], ids=["evaluate", "tune_alphabet"])
def test_observed_parameters_exist(fn, observed):
    assert observed <= set(inspect.signature(fn).parameters)


def test_stream_workload_runs_and_checks_its_answers():
    # drives nn1 on model.train_words and the brute-force label check in bench/measure.py
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    done = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "stream", "--seed", "0",
         "--seconds", "0.5", "--trace", "0"],
        env=env, capture_output=True, text=True, timeout=170,
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0


@pytest.mark.parametrize("workload", MATRIX_SHAPES)
def test_matrix_report_matches_recorded_digest(workload, tmp_path):
    write_matrix_workload(workload, 0, tmp_path / "data")
    call = measure.matrix_call(tmp_path)
    assert call["status"] == 0
    assert call["sha256"] == json.loads((BENCH / "digests.json").read_text())[workload]["0"]
