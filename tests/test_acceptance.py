"""Acceptance gate: the eight release criteria, one test each.

Every test prints a single ``[acceptance] criterion N: PASS/FAIL`` line
(visible in the report thanks to ``-rA``) before asserting, so the gate
status can be read straight off the pytest output.  Tolerances and
runtime budgets are pinned in the assertions, not configurable.
"""

import os
import re
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import oracles
from trendsax.classify import LabeledDataset, evaluate, nn1, tune_alphabet
from trendsax.core import make_alphabet_table, paa, symbolize, znormalize
from trendsax.dataset import load_dataset_pair
from trendsax.distance import verify_lower_bound
from trendsax.segmentation import SCHEMES, segment

pytestmark = pytest.mark.acceptance

REPO_ROOT = Path(__file__).resolve().parents[1]


def _report(number: int, passed: bool, detail: str) -> None:
    status = "PASS" if passed else "FAIL"
    print(f"[acceptance] criterion {number}: {status} - {detail}")
    assert passed, f"criterion {number} failed: {detail}"


def test_criterion_1_distance_table():
    table = make_alphabet_table(3)
    gap = float(table.pair_dist[0, 2])
    band_ok = all(
        table.pair_dist[i, j] == 0.0
        for i in range(3)
        for j in range(3)
        if abs(i - j) <= 1
    )
    passed = abs(gap - 0.86) <= 0.005 and band_ok
    _report(1, passed, f"pair_dist[a][c]={gap!r} (target 0.86 +/- 0.005), "
                       f"adjacent band exactly zero: {band_ok}")


def test_criterion_2_segmentation_goldens():
    expected = {
        "overlap": [[0, 1, 2, 4], [3, 5, 6, 8], [7, 9, 10, 12], [11, 13, 14, 15]],
        "intertwine": [[0, 2, 4, 6], [1, 3, 5, 7], [8, 10, 12, 14], [9, 11, 13, 15]],
        "split": [[0, 1, 4, 5], [2, 3, 6, 7], [8, 9, 12, 13], [10, 11, 14, 15]],
    }
    got = {scheme: segment(scheme, 16, 4).blocks.tolist() for scheme in expected}
    mismatches = [s for s in expected if got[s] != expected[s]]
    _report(2, not mismatches,
            f"16/4 block patterns for overlap, intertwine, split; mismatches: {mismatches or 'none'}")


def test_criterion_3_trend_flaw():
    seg = segment("classic", 4, 1)
    rising = paa(np.array([-6.0, -1.0, 7.0, 8.0]), seg).means
    falling = paa(np.array([9.0, 3.0, 1.0, -5.0]), seg).means
    passed = rising.tolist() == [2.0] and falling.tolist() == [2.0]
    _report(3, passed, f"single-block PAA of opposite trends: {float(rising[0])!r} and "
                       f"{float(falling[0])!r}, both must be 2.0")


def test_criterion_4_lower_bound_suite():
    start = time.perf_counter()
    checks = 0
    violations = 0
    worst = float("inf")
    config_index = 0
    for n in (16, 128):
        m = n // 4
        for alpha in (3, 5, 10):
            for scheme in SCHEMES:
                rng = np.random.default_rng(40_000 + 97 * config_index)
                config_index += 1
                for _ in range(1000):
                    s = znormalize(rng.standard_normal(n))
                    t = znormalize(rng.standard_normal(n))
                    result = verify_lower_bound(s, t, scheme, m, alpha)
                    checks += 1
                    worst = min(worst, result.slack)
                    if not result.holds:
                        violations += 1
    elapsed = time.perf_counter() - start
    passed = violations == 0 and elapsed < 10.0
    _report(4, passed,
            f"{checks} checks across n in (16, 128), alpha in (3, 5, 10), all schemes: "
            f"{violations} violations at 1e-9 tolerance, min slack={worst:.3e}, "
            f"{elapsed:.2f}s (budget 10s)")


def _synthetic_dataset(seed: int):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(16, 65))
    n_train = int(rng.integers(8, 25))
    n_test = int(rng.integers(8, 17))
    classes = int(rng.integers(2, 4))
    prototypes = [np.cumsum(rng.standard_normal(n)) for _ in range(classes)]

    def draw(count):
        rows = np.empty((count, n))
        labels = np.empty(count, dtype=np.int64)
        for i in range(count):
            cls = int(rng.integers(classes))
            rows[i] = prototypes[cls] + 0.3 * rng.standard_normal(n)
            labels[i] = cls + 1
        return rows, labels

    return n, draw(n_train), draw(n_test)


def test_criterion_5_oracle_equivalence():
    start = time.perf_counter()
    alphas = list(range(3, 9))

    def breakpoints_for(alpha):
        return make_alphabet_table(alpha).breakpoints

    mismatches = []
    for i in range(50):
        n, (train_rows, train_labels), (test_rows, test_labels) = _synthetic_dataset(9000 + i)
        scheme = SCHEMES[i % len(SCHEMES)]
        m = n // 4
        train = LabeledDataset(train_rows, train_labels)
        test = LabeledDataset(test_rows, test_labels)
        report = evaluate(train, test, scheme, m, alphabet_range=alphas)

        reference = oracles.evaluate(
            [list(map(float, row)) for row in train_rows],
            [int(v) for v in train_labels],
            [list(map(float, row)) for row in test_rows],
            [int(v) for v in test_labels],
            scheme, m, alphas, breakpoints_for,
        )

        model = tune_alphabet(train, scheme, m, alphabet_range=alphas)
        seg = segment(scheme, n, m)
        predictions = [
            nn1(symbolize(paa(znormalize(row), seg), model.table), model.train_words, model.table)
            for row in test_rows
        ]

        same = (
            report.alpha == reference["alpha"]
            and report.train_error == reference["train_error"]
            and report.test_error == reference["test_error"]
            and report.misclassified == reference["misclassified"]
            and report.total == reference["total"]
            and predictions == reference["predictions"]
        )
        if not same:
            mismatches.append((i, scheme))
    elapsed = time.perf_counter() - start
    passed = not mismatches and elapsed < 60.0
    _report(5, passed,
            f"50 seeded datasets, exact match on alpha/errors/predictions; "
            f"mismatches: {mismatches or 'none'}, {elapsed:.2f}s (budget 60s)")


def _find_ucr_dataset(name: str) -> Path | None:
    candidates = []
    env_root = os.environ.get("UCR_ROOT")
    if env_root:
        candidates.append(Path(env_root))
    candidates += [
        REPO_ROOT / "data",
        REPO_ROOT / "data" / "UCR",
        REPO_ROOT / "data" / "UCRArchive_2018",
        Path.home() / "data" / "UCR",
    ]
    for root in candidates:
        target = root / name
        if target.is_dir() and any(target.glob("*_TRAIN*")):
            return target
    return None


def test_criterion_6_ucr_spot_checks():
    coffee_dir = _find_ucr_dataset("Coffee")
    plane_dir = _find_ucr_dataset("Plane")
    if coffee_dir is None or plane_dir is None:
        notice = ("UCR archive not found (set UCR_ROOT or place Coffee/ and Plane/ "
                  "under data/); spot checks skipped")
        print(f"[acceptance] criterion 6: SKIP - {notice}")
        pytest.skip(notice)

    failures = []

    coffee = load_dataset_pair(coffee_dir)
    m = max(1, coffee.train.n // 4)
    for scheme, target, tol in (("classic", 0.28571, 0.05), ("overlap", 0.25, 0.05)):
        err = evaluate(coffee.train, coffee.test, scheme, m, dataset="Coffee").test_error
        if abs(err - target) > tol:
            failures.append(f"Coffee/{scheme}: {err:.5f} vs {target} +/- {tol}")

    plane = load_dataset_pair(plane_dir)
    m = max(1, plane.train.n // 4)
    for scheme in SCHEMES:
        err = evaluate(plane.train, plane.test, scheme, m, dataset="Plane").test_error
        if abs(err - 0.028571) > 0.03:
            failures.append(f"Plane/{scheme}: {err:.5f} vs 0.028571 +/- 0.03")

    _report(6, not failures, f"UCR spot checks; failures: {failures or 'none'}")


def test_criterion_7_parallel_determinism(suite_dir, tmp_path, child_env):
    outputs = []
    for jobs in ("1", "8"):
        out = tmp_path / f"report-jobs{jobs}.csv"
        proc = subprocess.run(
            [sys.executable, "-m", "trendsax", "benchmark", str(suite_dir),
             "--jobs", jobs, "--out", str(out)],
            capture_output=True, text=True, timeout=300, cwd=REPO_ROOT, env=child_env,
        )
        assert proc.returncode == 0, proc.stderr
        outputs.append(out.read_bytes())
    identical = outputs[0] == outputs[1]
    _report(7, identical,
            f"benchmark --jobs 1 vs --jobs 8 on the fixture suite: "
            f"{len(outputs[0])} bytes each, byte-identical: {identical}")


def test_criterion_8_property_harness():
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-m", "properties", "-q",
         "--no-header", "-p", "no:cacheprovider"],
        capture_output=True, text=True, timeout=540, cwd=REPO_ROOT,
    )
    match = re.search(r"(\d+) passed", proc.stdout)
    count = int(match.group(1)) if match else 0
    passed = proc.returncode == 0 and count > 0
    if not passed:
        print(proc.stdout[-4000:])
    _report(8, passed,
            f"pytest -m properties: exit {proc.returncode}, {count} property suites passed "
            f"(fixed-seed profile, 200 examples each)")
