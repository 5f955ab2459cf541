"""Property tests of the split layer's and the fitted models' invariants (Hypothesis)."""
import functools
import json
from contextlib import contextmanager, nullcontext
from dataclasses import asdict, replace
from unittest import mock

import hypothesis.extra.numpy as hnp
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from hingetree import (
    BoostConfig,
    CorruptModel,
    HingeKind,
    NonFiniteInput,
    SplitConfig,
    TreeConfig,
    augment,
    build_tree,
    default_boost_tree_config,
    dumps_model,
    find_optimal_split,
    fit_boost,
    gamma_bound_check,
    initialize_params,
    loads_model,
    model_from_dict,
    predict,
    predict_batch,
    predict_boost,
    predict_boost_batch,
    ridge_solve,
    select_split,
    staged_losses,
)
from hingetree import cli, linear, split, tree
from conftest import hinge_regression, relabel_leaves, unordered_partition, walked_boost
from reference import partition, replay_public_steps

# Few derandomized examples keep the suite fast and its outcome fixed.
FAST = settings(max_examples=40, deadline=None, derandomize=True, database=None)

coefficients = st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False)


@st.composite
def hinge_instances(draw):
    n = draw(st.integers(1, 40))
    d = draw(st.integers(1, 4))
    X = draw(hnp.arrays(np.float64, (n, d), elements=coefficients))
    theta1 = draw(hnp.arrays(np.float64, d + 1, elements=coefficients))
    # Equal parameters put every row on the tie.
    theta2 = theta1.copy() if draw(st.booleans()) else draw(
        hnp.arrays(np.float64, d + 1, elements=coefficients))
    return X, theta1, theta2, draw(st.sampled_from(HingeKind))


@FAST
@given(hinge_instances())
def test_partition_is_disjoint_and_covers_every_row(instance):
    X, theta1, theta2, kind = instance
    s1, s2 = partition(X, theta1, theta2, kind)
    assert np.intersect1d(s1, s2).size == 0
    assert np.array_equal(np.sort(np.concatenate([s1, s2])), np.arange(X.shape[0]))
    if X.shape[0] >= 2:  # the split loop's first partition is the oracle's
        out = find_optimal_split(X, np.zeros(X.shape[0]), kind,
                                 SplitConfig(t_max=1, min_subset=1), (theta1, theta2))
        assert out.partition_sizes[0] == (s1.size, s2.size)


@FAST
@given(seed=st.integers(0, 2**16), n=st.integers(8, 60), d=st.integers(1, 3),
       step=st.sampled_from([0.05, 0.5, 1.0, "auto"]), alpha=st.sampled_from([0.0, 1e-3]),
       kind=st.sampled_from(HingeKind))
def test_last_partition_size_is_that_of_the_returned_split(seed, n, d, step, alpha, kind):
    X, y = hinge_regression(seed, n, d, noise=0.1)
    out = find_optimal_split(X, y, kind, SplitConfig(step=step, ridge_alpha=alpha, seed=seed))
    s1, s2 = partition(X, out.theta1, out.theta2, kind)
    assert out.partition_sizes[-1] == (s1.size, s2.size)


def factorizes(X, y, alpha):
    try:
        np.linalg.cholesky(linear._normal_equations((X,), (y,), alpha)[1])
    except np.linalg.LinAlgError:
        return False
    return True


@st.composite
def side_systems(draw):
    p = draw(st.integers(2, 8))
    sides = []
    for _ in range(2):
        n = draw(st.integers(1, 30))
        X = augment(draw(hnp.arrays(np.float64, (n, p - 1), elements=st.floats(-100, 100))))
        y = draw(hnp.arrays(np.float64, n, elements=st.floats(-100, 100)))
        sides += [X, y]
    return sides


@FAST
@given(side_systems(), st.sampled_from([0.0, 1e-3, 0.1]))
def test_pair_solve_matches_two_ridge_solves(sides, alpha):
    X1, y1, X2, y2 = sides
    pair = linear.ridge_solve_pair(X1, y1, X2, y2, alpha)
    if pair is None:
        assert not (factorizes(X1, y1, alpha) and factorizes(X2, y2, alpha))
        return
    assert np.array_equal(pair[0], ridge_solve(X1, y1, alpha))
    assert np.array_equal(pair[1], ridge_solve(X2, y2, alpha))


# Whole-tree fits are slower than single splits, so they get fewer examples.
TREES = settings(max_examples=25, deadline=None, derandomize=True, database=None)

tree_fits = st.fixed_dictionaries({
    "seed": st.integers(0, 2**16), "n": st.integers(20, 80), "d": st.integers(1, 3),
    "step": st.sampled_from([0.01, 0.2, "auto"]),
})


def fit(seed, n, d, step):
    X, y = hinge_regression(seed, n, d, noise=0.1)
    return X, build_tree(X, y, TreeConfig(d_max=3, split=SplitConfig(step=step, seed=seed)))


@TREES
@given(tree_fits)
def test_same_seed_fits_the_same_tree(args):
    assert dumps_model(fit(**args)[1]) == dumps_model(fit(**args)[1])


@TREES
@given(tree_fits)
def test_save_load_round_trips_exactly(args):
    X, model = fit(**args)
    batch = predict_batch(model, X)
    loaded = loads_model(dumps_model(model))
    assert predict_batch(loaded, X).tobytes() == batch.tobytes()
    assert np.array([predict(loaded, row) for row in X]).tobytes() == batch.tobytes()


@FAST
@given(tree_fits)
def test_leaf_counts_are_the_training_rows_routed_to_them(args):
    X, model = fit(**args)
    # A leaf that predicts its own index turns predict_batch into a leaf lookup;
    # routing reads only the internal nodes.
    labelled, counts = relabel_leaves(model)
    reached = predict_batch(labelled, X).astype(int)
    assert np.bincount(reached, minlength=len(counts)).tolist() == counts


@FAST
@given(seed=st.integers(0, 2**16), n=st.integers(20, 60), d=st.integers(1, 3),
       m_stages=st.integers(1, 4), eta=st.sampled_from([0.1, 0.5, 1.0]))
def test_every_boost_stage_keeps_the_risk_bound(seed, n, d, m_stages, eta):
    X, y = hinge_regression(seed, n, d, noise=0.1)
    model = fit_boost(X, y, BoostConfig(m_stages=m_stages, eta=eta,
                                        tree=default_boost_tree_config(seed)))
    checks = gamma_bound_check(model)
    assert len(checks) == len(model.stage_retained)
    assert all(check.ok for check in checks)


# ---- the batch router against the scalar walk, on model documents built by hand ----

MAX_DEPTH = 4


def node_doc(shapes, gen, d, depth=0):
    """One tree as a document, its node shapes drawn in preorder from ``shapes``.

    "L" is a leaf (also once the shapes run out or at ``MAX_DEPTH``), "X" and
    "N" a max and a min hinge, "T" a min hinge whose sides tie on every row,
    and "F" a median-style axis split with its fallback fields.
    """
    shape = next(shapes, "L") if depth < MAX_DEPTH else "L"
    if shape == "L" or (shape == "F" and d == 0):
        return {"leaf": {"theta": gen.normal(size=d + 1).tolist(), "n_train": 1}}
    if shape == "F":
        k = int(gen.integers(d))
        threshold = float(gen.normal())
        theta1 = np.zeros(d + 1)
        theta1[k], theta1[-1] = 1.0, -threshold
        body = {"kind": "max", "theta1": theta1.tolist(), "theta2": (-theta1).tolist(),
                "used_fallback": True, "fallback_feature": k, "fallback_threshold": threshold}
    else:
        theta1 = gen.normal(size=d + 1)
        theta2 = theta1 if shape == "T" else gen.normal(size=d + 1)
        body = {"kind": "max" if shape == "X" else "min", "theta1": theta1.tolist(),
                "theta2": theta2.tolist(), "used_fallback": False}
    body["left"] = node_doc(shapes, gen, d, depth + 1)
    body["right"] = node_doc(shapes, gen, d, depth + 1)
    return {"internal": body}


tree_shapes = st.lists(st.sampled_from("LXNTF"), max_size=2 ** MAX_DEPTH)
special_values = st.sampled_from([np.inf, -np.inf, np.nan])


@st.composite
def routed_models(draw, d):
    """``(hrt, boost, X)``: a hand-built tree, an ensemble and rows to route through them."""
    gen = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    retained = draw(st.lists(st.booleans(), max_size=5))
    learners = [node_doc(iter(draw(tree_shapes)), gen, d) for _ in range(sum(retained))]
    hrt = {"format_version": 1, "kind": "hrt", "d": d, "config": asdict(TreeConfig()),
           "root": node_doc(iter(draw(tree_shapes)), gen, d)}
    boost = {"format_version": 1, "kind": "boost", "d": d, "f0": float(gen.normal()),
             "eta": draw(st.sampled_from([0.1, 0.5, 1.0])),
             "gamma_trace": [0.0] * len(retained), "loss_trace": [1.0] * (len(retained) + 1),
             "stage_retained": retained, "config": asdict(BoostConfig(tree=TreeConfig())),
             "learners": learners}
    X = 2.0 * gen.normal(size=(draw(st.integers(0, 12)), d))
    if X.size:
        for _ in range(draw(st.integers(0, 3))):
            X[gen.integers(X.shape[0]), gen.integers(d)] = draw(special_values)
    return model_from_dict(hrt), model_from_dict(boost), X


def assert_same_values(batch, scalar):
    scalar = np.array(scalar, dtype=float)
    assert batch.shape == scalar.shape
    assert batch.tobytes() == scalar.tobytes()


# Router blocks of 1 and 7 (row, tree) pairs split one batch into many blocks.
@pytest.mark.parametrize("block", [1, 7, "default"])
@pytest.mark.parametrize("d", [0, 1, 2, 16])
def test_batch_routing_equals_the_scalar_walk(d, block):
    @FAST
    @given(routed_models(d))
    def check(models):
        hrt, boost, X = models
        blocks = mock.patch.object(tree, "_BLOCK", block) if block != "default" else nullcontext()
        finite = np.isfinite(X).all(axis=1)
        with blocks:
            F = X[finite]
            assert_same_values(predict_batch(hrt, F), [predict(hrt, row) for row in F])
            # The boost entry points route differently (the batch level by level,
            # a single row in one pass over the table), and each is held to the
            # learners' scalar walks.
            walked = [walked_boost(boost, row) for row in F]
            assert_same_values(predict_boost_batch(boost, F), walked)
            assert_same_values(np.array([predict_boost(boost, row) for row in F]), walked)
            if finite.all():
                return
            # A row holding inf or NaN is rejected, alone or in a batch.
            for bad in X[~finite]:
                for predict_one, model in ((predict, hrt), (predict_boost, boost)):
                    with pytest.raises(NonFiniteInput):
                        predict_one(model, bad)
            for predict_many, model in ((predict_batch, hrt), (predict_boost_batch, boost)):
                with pytest.raises(NonFiniteInput):
                    predict_many(model, X)
            with pytest.raises(NonFiniteInput):
                staged_losses(boost, X, np.zeros(X.shape[0]))

    check()


@st.composite
def kernel_instances(draw, special):
    """``(x, theta)``: one row of d features and a ``(d+1, columns)`` coefficient table.

    Magnitudes reach 1e300, so products overflow; with ``special`` a few
    values are also inf or NaN.
    """
    d = draw(st.integers(0, 16))
    columns = draw(st.integers(1, 6))
    values = st.floats(-1e300, 1e300)
    if special:
        values = values | special_values
    x = draw(st.lists(values, min_size=d, max_size=d))
    theta = draw(hnp.arrays(np.float64, (d + 1, columns), elements=values))
    return x, theta


@pytest.mark.parametrize("special", [False, True], ids=["finite", "inf-nan"])
def test_row_kernel_over_columns_has_the_bits_of_the_batch_and_of_each_column(special):
    @FAST
    @given(kernel_instances(special))
    def check(instance):
        x, theta = instance
        with np.errstate(all="ignore"):
            row = linear.affine_row(x, theta)
            batch = linear.affine(np.array([x]), theta[:, None, :])[0]
        columns = np.array([linear.affine_row(x, theta[:, i].tolist())
                            for i in range(theta.shape[1])])
        assert_same_values(row, batch)
        if not special:
            assert_same_values(row, columns)
            return
        # Where two NaN operands meet, IEEE 754 leaves the result's sign and
        # payload open, and CPython's float addition and NumPy's pick different
        # operands; every other value keeps its bits.  (Finite features and
        # coefficients never meet two NaNs: a product of them is not NaN.)
        nan = np.isnan(row)
        assert np.array_equal(nan, np.isnan(columns))
        assert_same_values(row[~nan], columns[~nan])

    check()


# ---- the auto step ----

@FAST
@given(seed=st.integers(0, 2**16), n=st.integers(8, 60), d=st.integers(1, 3),
       noise=st.sampled_from([0.0, 0.1, 1.0]))
def test_auto_step_objective_trace_strictly_decreases(seed, n, d, noise):
    X, y = hinge_regression(seed, n, d, noise)
    for kind in HingeKind:
        trace = find_optimal_split(X, y, kind, SplitConfig(step="auto", seed=seed)).objective_trace
        assert all(b < a for a, b in zip(trace, trace[1:]))


# ---- reuse of the ridge targets while the partition holds ----

def replayed_partitions(X, y, kind, config):
    """The first side each iteration refits, and the iteration count, from the reference steps."""
    firsts = []
    mus = replay_public_steps(X, y, kind, config, firsts=firsts)[3]
    # A side below min_subset keeps its parameters, and such targets are never reused.
    assume(all(min(s1.size, len(y) - s1.size) >= config.min_subset for s1 in firsts))
    return firsts, len(mus)


@contextmanager
def recorded_pair_solves():
    """Record the result of every ``ridge_solve_pair`` call the split layer makes."""
    pairs = []
    solve_pair = split.ridge_solve_pair

    def recorded(*args):
        pairs.append(solve_pair(*args))
        return pairs[-1]

    with mock.patch.object(split, "ridge_solve_pair", recorded):
        yield pairs


@FAST
@given(seed=st.integers(0, 2**16), n=st.integers(12, 80), d=st.integers(1, 3),
       step=st.sampled_from([0.01, 0.1, "auto"]), kind=st.sampled_from(HingeKind))
def test_one_pair_solve_per_distinct_partition(seed, n, d, step, kind):
    X, y = hinge_regression(seed, n, d, noise=0.1)
    config = SplitConfig(step=step, t_max=40, epsilon=1e-4, seed=seed)
    firsts, iterations = replayed_partitions(X, y, kind, config)
    # The start is passed so that only the loop's solves are counted.
    start = initialize_params(X, y, config.ridge_alpha, config.seed)
    with recorded_pair_solves() as pairs:
        out = find_optimal_split(X, y, kind, config, start)
    # A failed stacked factorization falls back to single fits, which may keep parameters.
    assume(all(pair is not None for pair in pairs))
    assert out.iterations == iterations
    # One solve per distinct unordered partition {S1, S2} of the call, revisited ones and
    # complements of earlier ones included.
    assert len(pairs) == len({unordered_partition(s1, n) for s1 in firsts})


@FAST
@given(seed=st.integers(0, 2**16), n=st.integers(12, 80), d=st.integers(1, 3),
       step=st.sampled_from([0.01, 0.1, "auto"]))
def test_one_pair_solve_per_distinct_partition_of_a_node(seed, n, d, step):
    X, y = hinge_regression(seed, n, d, noise=0.1)
    config = SplitConfig(step=step, t_max=40, epsilon=1e-4, seed=seed)
    per_variant = [{unordered_partition(s1, n) for s1 in replayed_partitions(X, y, kind, config)[0]}
                   for kind in HingeKind]
    with recorded_pair_solves() as init_pairs:
        initialize_params(X, y, config.ridge_alpha, config.seed)
    with recorded_pair_solves() as pairs:
        select_split(X, y, config)
    assume(all(pair is not None for pair in pairs))
    # Initialization solves its own partition; the variants share the rest.  The max
    # variant's first partition is the min variant's first with the sides swapped, unless a
    # row lies on the start's hinge.
    assert len(pairs) == len(init_pairs) + len(per_variant[0] | per_variant[1])


@FAST
@given(seed=st.integers(0, 2**16), n=st.integers(12, 80), d=st.integers(1, 3),
       step=st.sampled_from([0.01, 1.0, "auto"]), alpha=st.sampled_from([0.0, 1e-3]),
       min_subset=st.integers(1, 3))
def test_select_split_is_the_better_of_two_separate_variants(seed, n, d, step, alpha, min_subset):
    X, y = hinge_regression(seed, n, d, noise=0.1)
    config = SplitConfig(step=step, ridge_alpha=alpha, min_subset=min_subset, seed=seed)
    start = initialize_params(X, y, alpha, seed)
    out_max, out_min = (find_optimal_split(X, y, kind, config, start) for kind in HingeKind)
    rmse_max, rmse_min = (np.sqrt(2.0 * o.objective_trace[-1] / n) for o in (out_max, out_min))
    want = out_min if rmse_min < rmse_max else out_max
    got = select_split(X, y, config)
    assert got.theta1.tobytes() == want.theta1.tobytes()
    assert got.theta2.tobytes() == want.theta2.tobytes()
    assert (got.kind, got.converged, got.iterations) == (want.kind, want.converged,
                                                        want.iterations)
    assert got.objective_trace == want.objective_trace and got.mu_trace == want.mu_trace
    assert got.partition_sizes == want.partition_sizes
    assert got.variant_iterations == (out_max.iterations, out_min.iterations)


# ---- loading edited model documents ----

@functools.cache
def saved_documents():
    """The text of a saved tree, with a fallback split, and of a saved ensemble,
    both with a preprocess block."""
    X, y = hinge_regression(6, 80, 2, noise=0.1)
    hrt = build_tree(X, y, TreeConfig(d_max=3, split=SplitConfig(seed=6)))
    boost = fit_boost(X, y, BoostConfig(m_stages=3, eta=0.5,
                                        tree=replace(default_boost_tree_config(6), d_max=2)))
    texts = []
    for model in (hrt, boost):
        model = replace(model, preprocess={"standardize": {"shift": [1.0, 0.5],
                                                           "scale": [3.0, 2.0],
                                                           "constant_mask": [False, False]}})
        texts.append(dumps_model(model))
    assert '"used_fallback": true' in texts[0]
    return tuple(texts)


DELETE = object()
replacements = st.sampled_from([None, "x", [], [0.5], {}, {"a": 1}, True, False, -3, 2**64,
                                10**400, float("nan"), float("inf"), float("-inf"), DELETE])


@st.composite
def edited_documents(draw):
    """A saved document with the value at one drawn path replaced or deleted."""
    doc = json.loads(draw(st.sampled_from(saved_documents())))
    node = doc
    while True:
        key = draw(st.sampled_from(list(node) if isinstance(node, dict) else range(len(node))))
        child = node[key]
        # Stop here, or walk one level further into a non-empty object or list.
        if not (isinstance(child, (dict, list)) and child) or draw(st.integers(0, 3)) == 0:
            break
        node = child
    value = draw(replacements)
    if value is DELETE:
        del node[key]
    else:
        node[key] = value
    return json.dumps(doc)


@settings(FAST, max_examples=600)
@given(edited_documents())
def test_an_edited_document_loads_whole_or_raises_corrupt_model(text):
    try:
        model = loads_model(text)
    except CorruptModel:
        return
    dumps_model(model)
    X = np.random.default_rng(0).uniform(-3.0, 5.0, size=(7, model.d))
    assert np.isfinite(cli._predictions(model, X)).all()
