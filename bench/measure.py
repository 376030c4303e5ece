"""The measuring process: one fresh interpreter per workload run.

    python3 bench/measure.py MODE WORKLOAD SEED SECONDS WORK_DIR

``MODE`` is ``setup`` (time the set-up only), ``time`` (set up, then
drive the workload for ``SECONDS`` with tracing off) or ``trace`` (a
fixed amount of work, once untraced and once traced).  The result is
written to ``WORK_DIR/<MODE>.json``.  ``run.py`` starts this process with
``src`` on ``PYTHONPATH``; it is not meant to be run by hand.
"""

import sys
import time

_t0 = time.perf_counter()
import trendsax  # noqa: E402  -- the import is part of set-up time

IMPORT_S = time.perf_counter() - _t0

import hashlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
from pathlib import Path  # noqa: E402

import trendsax.classify as classify  # noqa: E402
import trendsax.cli as cli  # noqa: E402
import trendsax.core as core  # noqa: E402
import trendsax.distance as distance  # noqa: E402
import trendsax.segmentation as segmentation  # noqa: E402

from gen import ALPHAS, RATIO, STREAM_SHAPE, StreamSource  # noqa: E402
from spans import Tracer  # noqa: E402

# stream settings fixed by the workload definition
STREAM_SCHEME, STREAM_M, AUDIT_ALPHA = "intertwine", 64, 8
# each stream op type gets at least this many samples, so p99 has 20 beyond it
MIN_OPS = 2000
# queries 0, QUERY_CHECK_EVERY, 2 * QUERY_CHECK_EVERY, ... below MIN_OPS are
# re-checked against a brute-force mindist scan, the same 16 in every run
QUERY_CHECK_EVERY = 125


def peak_rss_mb() -> float:
    """Peak resident memory of this process image, in MiB.

    ``VmHWM`` restarts at exec; ``ru_maxrss`` does not, so it would also
    hold the resident size of the parent this process was forked from.
    """
    try:
        for line in Path("/proc/self/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# -- matrix workloads (tall, wide) -------------------------------------------

def matrix_call(work: Path) -> dict:
    """One ``trendsax benchmark`` call through ``cli.main``; times it and hashes the report."""
    out = work / "report.csv"
    out.unlink(missing_ok=True)
    argv = ["benchmark", str(work / "data"), "--scheme", "all",
            "--alphabet-range", f"{ALPHAS[0]}:{ALPHAS[-1]}", "--ratio", str(RATIO),
            "--jobs", "1", "--format", "csv", "--out", str(out)]
    start = time.perf_counter()
    status = cli.main(argv)
    seconds = time.perf_counter() - start
    return {"seconds": seconds, "status": status,
            "sha256": hashlib.sha256(out.read_bytes()).hexdigest() if out.exists() else None}


def run_matrix(mode: str, seconds: float, work: Path, tracer: Tracer) -> dict:
    if mode == "trace":
        untraced = matrix_call(work)
        tracer.install()
        traced = matrix_call(work)
        tracer.uninstall()
        return {"calls": [untraced, traced], "untraced_s": untraced["seconds"],
                "traced_s": traced["seconds"]}
    start = time.perf_counter()
    calls = [matrix_call(work)]
    # later calls can reuse freed memory or fragment it; the first call's peak is the steady figure
    first_peak_mb = peak_rss_mb()
    while time.perf_counter() - start < seconds:
        calls.append(matrix_call(work))
    return {"calls": calls, "peak_rss_mb": first_peak_mb}


# -- stream workload -----------------------------------------------------------

def stream_setup(seed: int):
    """Generate the stream inputs (untimed), then tune the model (timed)."""
    source = StreamSource(seed)
    train = classify.LabeledDataset(source.train_series, source.train_labels)
    start = time.perf_counter()
    model = classify.tune_alphabet(train, STREAM_SCHEME, STREAM_M)
    return source, model, time.perf_counter() - start


def stream_loop(source: StreamSource, model, seconds: float | None) -> dict:
    """Closed loop with one client alternating a query and an audit.

    Runs for ``seconds`` and at least ``MIN_OPS`` of each type, or exactly
    ``MIN_OPS`` of each when ``seconds`` is None.
    """
    seg = segmentation.segment(STREAM_SCHEME, STREAM_SHAPE[1], STREAM_M)
    schemes = segmentation.SCHEMES
    round_s: list[float] = []
    query_s: list[float] = []
    audit_s: list[float] = []
    sampled: list[tuple[int, object, int]] = []
    failed = violations = 0
    clock = time.perf_counter
    start = clock()
    i = 0
    while True:
        j = i % source.BLOCK
        if j == 0:
            queries, lefts, rights = source.block(i // source.BLOCK)
        t0 = clock()
        query_ok = False
        try:
            word = core.symbolize(core.paa(core.znormalize(queries[j]), seg), model.table)
            label = classify.nn1(word, model.train_words, model.table)
        except Exception:
            failed += 1
        else:
            query_s.append(clock() - t0)
            query_ok = True
            if i < MIN_OPS and i % QUERY_CHECK_EVERY == 0:
                sampled.append((i, word, label))
        t1 = clock()
        try:
            report = distance.verify_lower_bound(lefts[j], rights[j], schemes[i % len(schemes)],
                                                 STREAM_M, AUDIT_ALPHA)
        except Exception:
            failed += 1
        else:
            t2 = clock()
            audit_s.append(t2 - t1)
            violations += not report.holds
            if query_ok:
                round_s.append(t2 - t0)
        i += 1
        if i == MIN_OPS:
            # the lists of latencies grow with the run; this peak is the steady figure
            peak_mb = peak_rss_mb()
        if seconds is None:
            if i == MIN_OPS:
                break
        elif i >= MIN_OPS and clock() - start >= seconds:
            break
    return {"ops": 2 * i, "loop_s": clock() - start, "peak_rss_mb": peak_mb, "round_s": round_s,
            "query_s": query_s, "audit_s": audit_s,
            "exceptions": failed, "violations": violations, "sampled": sampled}


def check_queries(model, sampled) -> int:
    """Sampled queries whose nn1 label differs from a brute-force mindist argmin."""
    wrong = 0
    for _, word, label in sampled:
        best, best_label = None, None
        for train_word, train_label in model.train_words:
            d = distance.mindist(word, train_word, model.table)
            if best is None or d < best:
                best, best_label = d, train_label
        wrong += best_label != label
    return wrong


def stream_result(loop: dict, model) -> dict:
    sampled = loop.pop("sampled")
    loop["checked_queries"] = len(sampled)
    loop["wrong_queries"] = check_queries(model, sampled)
    return loop


def trace_stream(seed: int, tracer: Tracer) -> dict:
    """Set-up plus ``MIN_OPS`` ops of each type, once untraced and once traced."""
    start = time.perf_counter()
    source, model, _ = stream_setup(seed)
    loop = stream_loop(source, model, None)
    untraced_s = time.perf_counter() - start
    untraced = stream_result(loop, model)
    tracer.install()
    start = time.perf_counter()
    source, model, _ = stream_setup(seed)
    loop = stream_loop(source, model, None)
    traced_s = time.perf_counter() - start
    tracer.uninstall()
    return {"untraced": untraced, "traced": stream_result(loop, model),
            "untraced_s": untraced_s, "traced_s": traced_s}


def main(argv: list[str]) -> int:
    mode, workload, seed, seconds, work = argv[0], argv[1], int(argv[2]), float(argv[3]), Path(argv[4])
    result: dict = {}
    setup_s = IMPORT_S
    tracer = Tracer(f"{workload}-{seed}")
    if workload == "stream" and mode == "trace":
        result.update(trace_stream(seed, tracer))
    elif workload == "stream":
        source, model, tune_s = stream_setup(seed)
        setup_s += tune_s
        if mode == "time":
            result.update(stream_result(stream_loop(source, model, seconds), model))
    elif mode != "setup":
        result.update(run_matrix(mode, seconds, work, tracer))
    result["setup_s"] = setup_s
    if mode == "trace":
        result["layers"] = tracer.summary()
        tracer.write(work.parent.parent / "_out" / f"spans-{workload}.jsonl")
    result.setdefault("peak_rss_mb", peak_rss_mb())
    (work / f"{mode}.json").write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
