"""Timing spans recorded from outside the library.

:class:`Tracer` replaces selected public functions of ``trendsax`` with
wrappers wherever a module binds them, so a call made by one module into
another is timed without touching the library's source.  Every span is
kept in memory as ``(name, start, end, parent)`` and written out once,
at the end of a run.  Observers attached to a name turn a call's
arguments and result into work counts at the same boundary.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from collections import defaultdict
from pathlib import Path

# (module, function): the public names one layer calls in another.  The
# span name is the defining module without the package prefix, so
# ``trendsax.classify.paa`` and ``trendsax.distance.paa`` both record
# ``core.paa``.
TRACED = (
    ("trendsax.dataset", "load_ucr"),
    ("trendsax.core", "znormalize"),
    ("trendsax.core", "paa"),
    ("trendsax.core", "symbolize"),
    ("trendsax.core", "make_alphabet_table"),
    ("trendsax.segmentation", "segment"),
    ("trendsax.classify", "evaluate"),
    ("trendsax.classify", "tune_alphabet"),
    ("trendsax.classify", "nn1"),
    ("trendsax.distance", "mindist"),
    ("trendsax.distance", "euclidean"),
    ("trendsax.distance", "verify_lower_bound"),
    ("trendsax.benchmark", "run_benchmark"),
    ("trendsax.benchmark", "emit_report"),
    ("trendsax.cli", "main"),
)


def _alphas(bound: inspect.BoundArguments) -> int:
    return len({int(a) for a in bound.arguments["alphabet_range"]})


def _observe_load_ucr(counts, bound, result) -> None:
    counts["dataset.values_parsed"] += int(result.series.size)


def _observe_evaluate(counts, bound, result) -> None:
    # word-distance work from shapes: every LOOCV alpha compares N_train
    # rows with N_train rows, test scoring N_test with N_train, m each
    train, test, m = bound.arguments["train"], bound.arguments["test"], bound.arguments["m"]
    alphas = _alphas(bound)
    counts["distance.pair_positions"] += (alphas * len(train) + len(test)) * len(train) * m
    counts["classify.alpha_candidates"] += alphas
    counts["classify.alpha_kept"] += 1


def _observe_tune_alphabet(counts, bound, result) -> None:
    counts["classify.alpha_candidates"] += _alphas(bound)
    counts["classify.alpha_kept"] += 1


def _observe_verify(counts, bound, result) -> None:
    counts["distance.bound_violations"] += int(not result.holds)


def _observe_run_benchmark(counts, bound, result) -> None:
    counts["benchmark.error_rows"] += sum(row.error is not None for row in result.rows)


OBSERVERS = {
    "dataset.load_ucr": _observe_load_ucr,
    "classify.evaluate": _observe_evaluate,
    "classify.tune_alphabet": _observe_tune_alphabet,
    "distance.verify_lower_bound": _observe_verify,
    "benchmark.run_benchmark": _observe_run_benchmark,
}


class Tracer:
    """Records nested spans around the ``TRACED`` functions while installed."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[list] = []
        self.counts: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        observer = OBSERVERS.get(name)
        signature = inspect.signature(fn)
        spans, stack, counts = self.spans, self._stack, self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append([name, 0.0, 0.0, stack[-1] if stack else -1])
            stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[index][1:3] = start, end
            if observer is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                observer(counts, bound, result)
            return result

        return wrapper

    def install(self) -> None:
        """Rebind every ``trendsax`` module attribute that names a traced function."""
        modules = [m for key, m in sys.modules.items() if key == "trendsax" or key.startswith("trendsax.")]
        for module_name, attr in TRACED:
            original = getattr(sys.modules[module_name], attr)
            wrapper = self._wrap(f"{module_name.split('.', 1)[1]}.{attr}", original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)
                        self._patched.append((module, key, original))

    def uninstall(self) -> None:
        for module, key, original in reversed(self._patched):
            setattr(module, key, original)
        self._patched.clear()

    def summary(self) -> dict[str, float]:
        """Calls, busy time and self time per span name, plus the counts.

        Self time is a span's duration minus the durations of its direct
        children; spans nest strictly because the library is driven from
        one thread.
        """
        calls: dict[str, int] = defaultdict(int)
        busy: dict[str, float] = defaultdict(float)
        child: list[float] = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            calls[name] += 1
            busy[name] += end - start
            if parent >= 0:
                child[parent] += end - start
        own: dict[str, float] = defaultdict(float)
        for (name, start, end, _), covered in zip(self.spans, child):
            own[name] += end - start - covered
        out: dict[str, float] = {}
        for name in calls:
            out[f"{name}.calls"] = calls[name]
            out[f"{name}.busy_s"] = busy[name]
            out[f"{name}.self_s"] = own[name]
        out.update(self.counts)
        out["trace.spans"] = len(self.spans)
        return out

    def write(self, path: Path) -> None:
        """Write every span as one JSON line: name, start, end, parent, run."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as fh:
            for name, start, end, parent in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "run": self.run_id}) + "\n")
