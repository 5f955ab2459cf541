"""Span tracing around hingetree's public functions, patched in from outside.

The tracer replaces a public function by a timing wrapper in the namespace
of the module that calls it (``hingetree.split.ridge_solve`` and
``hingetree.linear.ridge_solve`` are two patches of one function), records
one span per call with its parent span, and restores every original
attribute when the ``installed`` block ends.  No file under ``src/`` is
changed.  A layer's self time is its span's duration minus the part of
that interval its child spans cover.
"""
from __future__ import annotations

import functools
import importlib
import math
import time
from collections import Counter, defaultdict
from contextlib import contextmanager


class Span:
    __slots__ = ("name", "start", "end", "parent")

    def __init__(self, name: str, start: int, end: int, parent: int):
        self.name = name
        self.start = start
        self.end = end
        self.parent = parent  # index of the enclosing span, -1 for a root span


def self_times(spans: list[Span]) -> list[int]:
    """Each span's duration minus the union of its direct children's intervals."""
    children: dict[int, list[tuple[int, int]]] = defaultdict(list)
    for s in spans:
        if s.parent >= 0:
            children[s.parent].append((s.start, s.end))
    out = []
    for i, s in enumerate(spans):
        covered = 0
        cur_start = cur_end = None
        for a, b in sorted(children.get(i, ())):
            a, b = max(a, s.start), min(b, s.end)
            if b <= a:
                continue
            if cur_end is None or a > cur_end:
                if cur_end is not None:
                    covered += cur_end - cur_start
                cur_start, cur_end = a, b
            else:
                cur_end = max(cur_end, b)
        if cur_end is not None:
            covered += cur_end - cur_start
        out.append((s.end - s.start) - covered)
    return out


class Tracer:
    """In-memory spans and counters for one traced operation."""

    def __init__(self, clock=time.perf_counter_ns):
        self.clock = clock
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self.failures: list[str] = []
        self._stack: list[int] = []

    def enter(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, self.clock(), 0, parent))
        self._stack.append(idx)
        return idx

    def exit(self, idx: int) -> None:
        self.spans[idx].end = self.clock()
        self._stack.pop()

    def wrap(self, fn, name: str, on_return=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = tracer.enter(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                tracer.exit(idx)
                tracer.counts[f"{name}:raised:{type(exc).__name__}"] += 1
                raise
            tracer.exit(idx)
            if on_return is not None:
                on_return(tracer, args, kwargs, result)
            return result

        return traced

    def totals(self):
        """Per span name: (calls, total seconds, self seconds)."""
        calls: Counter = Counter()
        total: Counter = Counter()
        own: Counter = Counter()
        for s, t in zip(self.spans, self_times(self.spans)):
            calls[s.name] += 1
            total[s.name] += (s.end - s.start) / 1e9
            own[s.name] += t / 1e9
        return calls, total, own


# ---- counters read from arguments and results at the wrapped boundaries ----

def _arg(args, kwargs, pos: int, key: str):
    return kwargs[key] if key in kwargs else args[pos]


def _on_find_optimal_split(tracer, args, kwargs, outcome):
    config = _arg(args, kwargs, 3, "config")
    tracer.counts["split.variants"] += 1
    tracer.counts["split.variant_iterations"] += outcome.iterations
    tracer.counts["split.converged"] += int(outcome.converged)
    if config.auto_step:
        # Accepted steps are mu0 * beta**s; s candidates were rejected before each.
        tracer.counts["split.rejected_step_candidates"] += sum(
            round(math.log(config.mu0 / mu) / math.log(1.0 / config.beta))
            for mu in outcome.mu_trace
        )
        trace = outcome.objective_trace
        if any(b >= a for a, b in zip(trace, trace[1:])):
            tracer.failures.append("auto-step objective trace is not strictly decreasing")


def _on_build_tree(tracer, args, kwargs, model):
    tracer.counts["tree.leaves"] += model.stats.n_leaves


def _on_predict_batch(tracer, args, kwargs, out):
    tracer.counts["tree.predict_batch.rows"] += int(out.shape[0])


def _on_fit_boost(tracer, args, kwargs, model):
    tracer.counts["boost.stages_retained"] += len(model.learners)


def _on_dumps_model(tracer, args, kwargs, text):
    tracer.counts["serialize.model_bytes"] += len(text.encode("utf-8"))


def _on_load_csv(tracer, args, kwargs, ds):
    tracer.counts["datasets.load_csv.cells"] += int(ds.X.size + ds.y.size)


# (calling module, attribute, span name, counter hook).  Every caller's
# namespace is patched, including the defining module for the calls that
# the benchmark itself makes through module attributes.
PATCHES = [
    ("hingetree.linear", "ridge_solve", "linear.ridge_solve", None),
    ("hingetree.split", "ridge_solve", "linear.ridge_solve", None),
    ("hingetree.split", "initialize_params", "split.initialize_params", None),
    ("hingetree.split", "find_optimal_split", "split.find_optimal_split", _on_find_optimal_split),
    ("hingetree.tree", "select_split", "split.select_split", None),
    ("hingetree.tree", "median_fallback", "split.median_fallback", None),
    ("hingetree.tree", "build_tree", "tree.build_tree", _on_build_tree),
    ("hingetree.boost", "build_tree", "tree.build_tree", _on_build_tree),
    ("hingetree.cli", "build_tree", "tree.build_tree", _on_build_tree),
    ("hingetree.tree", "predict_batch", "tree.predict_batch", _on_predict_batch),
    ("hingetree.boost", "predict_batch", "tree.predict_batch", _on_predict_batch),
    ("hingetree.cli", "predict_batch", "tree.predict_batch", _on_predict_batch),
    ("hingetree.tree", "predict", "tree.predict", None),
    ("hingetree.boost", "predict", "tree.predict", None),
    ("hingetree.boost", "fit_boost", "boost.fit_boost", _on_fit_boost),
    ("hingetree.cli", "fit_boost", "boost.fit_boost", _on_fit_boost),
    ("hingetree.boost", "predict_boost_batch", "boost.predict_boost_batch", None),
    ("hingetree.cli", "predict_boost_batch", "boost.predict_boost_batch", None),
    ("hingetree.serialize", "dumps_model", "serialize.dumps_model", _on_dumps_model),
    ("hingetree.serialize", "loads_model", "serialize.loads_model", None),
    ("hingetree.datasets", "load_csv", "datasets.load_csv", _on_load_csv),
    ("hingetree.cli", "main", "cli.main", None),
]


@contextmanager
def installed(tracer: Tracer):
    """Patch every attribute in PATCHES with a wrapper; restore all of them on exit."""
    saved = []
    try:
        for module_name, attr, span, hook in PATCHES:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            saved.append((module, attr, original))
            setattr(module, attr, tracer.wrap(original, span, hook))
        yield tracer
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(t: Tracer) -> dict[str, float]:
    """Per-layer counts and times of one traced operation (0 where a layer is idle)."""
    c = t.counts
    calls, total, own = t.totals()
    solves = calls["linear.ridge_solve"]
    solve_s = own["linear.ridge_solve"]
    selects = calls["split.select_split"]
    fallbacks = calls["split.median_fallback"]
    return {
        "linear.ridge_solve.calls": solves,
        "linear.ridge_solve.self_s": solve_s,
        "linear.ridge_solve.us_per_call": _ratio(1e6 * solve_s, solves),
        "linear.ridge_solve.degenerate": c["linear.ridge_solve:raised:DegenerateSystem"],
        "split.select_split.calls": selects,
        "split.find_optimal_split.self_s": own["split.find_optimal_split"],
        "split.variant_iterations": c["split.variant_iterations"],
        "split.converged_frac": _ratio(c["split.converged"], c["split.variants"]),
        "split.rejected_step_candidates": c["split.rejected_step_candidates"],
        "split.initialize_params.calls": calls["split.initialize_params"],
        "split.initialize_params.self_s": own["split.initialize_params"],
        "split.median_fallback.calls": fallbacks,
        "tree.build_tree.self_s": own["tree.build_tree"],
        "tree.leaves": c["tree.leaves"],
        "tree.fallback_frac": _ratio(fallbacks, selects),
        "tree.predict_batch.calls": calls["tree.predict_batch"],
        "tree.predict_batch.rows": c["tree.predict_batch.rows"],
        "tree.predict_batch.self_s": own["tree.predict_batch"],
        "tree.predict.us_per_call": _ratio(1e6 * total["tree.predict"], calls["tree.predict"]),
        "boost.fit_boost.self_s": own["boost.fit_boost"],
        "boost.stages_retained": c["boost.stages_retained"],
        "boost.predict_boost_batch.self_s": own["boost.predict_boost_batch"],
        "serialize.dumps_model.s": total["serialize.dumps_model"],
        "serialize.loads_model.s": total["serialize.loads_model"],
        "serialize.model_bytes": c["serialize.model_bytes"],
        "datasets.load_csv.s": total["datasets.load_csv"],
        "datasets.load_csv.cells": c["datasets.load_csv.cells"],
        "cli.main.s": total["cli.main"],
    }


# Metrics that count work; they must repeat exactly for identical inputs.
COUNT_METRICS = (
    "linear.ridge_solve.calls",
    "linear.ridge_solve.degenerate",
    "split.select_split.calls",
    "split.variant_iterations",
    "split.rejected_step_candidates",
    "split.initialize_params.calls",
    "split.median_fallback.calls",
    "tree.leaves",
    "tree.predict_batch.calls",
    "tree.predict_batch.rows",
    "boost.stages_retained",
    "serialize.model_bytes",
    "datasets.load_csv.cells",
)
