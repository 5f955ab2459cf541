"""Property tests of the split layer's and the fitted models' invariants (Hypothesis)."""
import hypothesis.extra.numpy as hnp
import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from hingetree import (
    BoostConfig,
    HingeKind,
    SplitConfig,
    TreeConfig,
    augment,
    build_tree,
    default_boost_tree_config,
    dumps_model,
    find_optimal_split,
    fit_boost,
    gamma_bound_check,
    loads_model,
    partition,
    predict,
    predict_batch,
    ridge_solve,
)
from hingetree import linear
from hingetree.tree import Leaf
from conftest import hinge_regression

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
        np.linalg.cholesky(linear._normal_equations(X, y, alpha)[2])
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


def leaves(node):
    if isinstance(node, Leaf):
        return [node]
    return leaves(node.left) + leaves(node.right)


@FAST
@given(tree_fits)
def test_leaf_counts_are_the_training_rows_routed_to_them(args):
    X, model = fit(**args)
    found = leaves(model.root)
    counts = [leaf.n_train for leaf in found]
    # A leaf that predicts its own index turns predict_batch into a leaf lookup;
    # routing reads only the internal nodes.
    for i, leaf in enumerate(found):
        leaf.theta = np.zeros(model.d + 1)
        leaf.theta[-1] = i
    reached = predict_batch(model, X).astype(int)
    assert np.bincount(reached, minlength=len(found)).tolist() == counts


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
