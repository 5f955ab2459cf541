"""Self time, patching and restoration of the benchmark's tracer."""
import importlib
import types

import numpy as np
import pytest

import tracer
from tracer import PATCHES, Span, Tracer, installed, layer_metrics, self_times


def test_self_time_of_a_nested_call_tree():
    # root [0, 100) holds a [10, 40) and b [50, 60); a holds c [15, 25).
    spans = [
        Span("root", 0, 100, -1),
        Span("a", 10, 40, 0),
        Span("c", 15, 25, 1),
        Span("b", 50, 60, 0),
    ]
    assert self_times(spans) == [60, 20, 10, 10]


def test_self_time_counts_covered_time_once():
    # Overlapping and out-of-parent child intervals are merged and clipped.
    spans = [
        Span("p", 0, 50, -1),
        Span("x", 5, 20, 0),
        Span("y", 15, 30, 0),
        Span("z", 40, 70, 0),
    ]
    assert self_times(spans)[0] == 50 - (30 - 5) - (50 - 40)


def test_wrapped_calls_record_nested_spans_with_a_fake_clock():
    ticks = iter(range(0, 1000, 10))
    t = Tracer(clock=lambda: next(ticks))
    mod = types.SimpleNamespace()

    def inner():
        return 1

    def outer():
        return mod.inner() + mod.inner()

    mod.inner = t.wrap(inner, "inner")
    mod.outer = t.wrap(outer, "outer")
    assert mod.outer() == 2
    # outer enters at 0, inner spans [10, 20) and [30, 40), outer exits at 50.
    calls, total, own = t.totals()
    assert calls["outer"] == 1 and calls["inner"] == 2
    assert total["outer"] == pytest.approx(50e-9)
    assert own["outer"] == pytest.approx(30e-9)
    assert own["inner"] == pytest.approx(20e-9)


def _attributes():
    return {(m, a): getattr(importlib.import_module(m), a) for m, a, _, _ in PATCHES}


def test_every_patched_attribute_is_restored_after_a_traced_fit():
    from hingetree import datasets, tree

    before = _attributes()
    ds = datasets.gen_synthetic("f1", 200, 0.1, 0)
    t = Tracer()
    with installed(t):
        assert all(_attributes()[k] is not v for k, v in before.items())
        model = tree.build_tree(ds.X, ds.y, tree.TreeConfig(d_max=2))
        tree.predict_batch(model, ds.X[:10])
    assert _attributes() == before
    assert all(_attributes()[k] is v for k, v in before.items())
    m = layer_metrics(t)
    assert m["split.select_split.calls"] >= 1
    assert m["linear.ridge_solve.calls"] > 0
    assert m["tree.predict_batch.rows"] == 10
    assert m["tree.leaves"] == model.stats.n_leaves


def test_attributes_are_restored_when_the_traced_code_raises():
    from hingetree import tree
    from hingetree.errors import DimensionMismatch

    before = _attributes()
    with pytest.raises(DimensionMismatch):
        with installed(Tracer()):
            tree.build_tree(np.zeros((4, 2)), np.zeros(3))
    assert all(_attributes()[k] is v for k, v in before.items())


def test_a_raised_degenerate_system_is_counted():
    from hingetree import linear
    from hingetree.errors import DegenerateSystem

    t = Tracer()
    with installed(t):
        with pytest.raises(DegenerateSystem):
            linear.ridge_solve(np.zeros((3, 2)), np.zeros(3))
    assert layer_metrics(t)["linear.ridge_solve.degenerate"] == 1


def test_rejected_step_candidates_are_read_from_the_accepted_steps():
    from hingetree.split import HingeKind, SplitConfig, SplitOutcome

    config = SplitConfig(step="auto", mu0=1.0, beta=0.5)
    outcome = SplitOutcome(theta1=np.zeros(2), theta2=np.zeros(2), kind=HingeKind.MAX,
                           converged=True, iterations=3, objective_trace=[4.0, 3.0, 2.0, 1.0],
                           mu_trace=[1.0, 0.25, 0.125])
    t = Tracer()
    tracer._on_find_optimal_split(t, (None, None, HingeKind.MAX, config), {}, outcome)
    assert t.counts["split.rejected_step_candidates"] == 0 + 2 + 3
    assert not t.failures
    outcome.objective_trace = [4.0, 4.0, 2.0, 1.0]
    tracer._on_find_optimal_split(t, (None, None, HingeKind.MAX, config), {}, outcome)
    assert t.failures
