from dataclasses import replace

import numpy as np
import pytest

from hingetree import (
    AllFeaturesConstant,
    BoostConfig,
    DimensionMismatch,
    HingeKind,
    HrtModel,
    NonFiniteInput,
    SplitConfig,
    TooFewSamples,
    TreeConfig,
    augment,
    build_tree,
    default_boost_tree_config,
    find_optimal_split,
    gen_synthetic,
    initialize_params,
    median_fallback,
    predict_batch,
    ridge_solve,
    select_split,
)
from hingetree import split
from hingetree.linear import affine_row, ridge_solve_pair
from hingetree.tree import Internal, Leaf, derive_seed, train_stats
from conftest import hinge_regression, random_regression, unordered_partition
from reference import damped_update, objective, partition, replay_public_steps


def vee_data():
    # y = |x| on a symmetric grid; exactly max(x, -x).
    x = np.array([[-2.0], [-1.0], [1.0], [2.0]])
    return x, np.abs(x[:, 0])


def one_step(X, y, theta1, theta2, kind, step, **fields):
    """``(mu, theta1', theta2')`` of one damped Newton step from (theta1, theta2).

    The step is :func:`find_optimal_split` with ``t_max=1``, the pair as its
    start and ``fields`` as the config's other fields; ``mu`` is the step
    taken, 0 when the line search found no decreasing step.
    """
    out = find_optimal_split(X, y, kind, SplitConfig(step=step, t_max=1, **fields),
                             (theta1, theta2))
    return (out.mu_trace[0] if out.mu_trace else 0.0), out.theta1, out.theta2


def loop_from(X, y, theta1, theta2, kind):
    """One iteration from (theta1, theta2), whose trace and sizes start with the pair's.

    ``objective_trace[0]`` is the package's node objective at the pair and
    ``partition_sizes[0]`` the sizes of its partition; ``min_subset`` 1
    lets a node of two rows run.
    """
    return find_optimal_split(X, y, kind, SplitConfig(t_max=1, min_subset=1), (theta1, theta2))


def first_side(X, theta1, theta2, kind):
    """The rows on the first side of the oracle's partition, once the package agrees.

    The split loop must give the partition's sizes (:func:`loop_from`), and
    a one-split tree of the pair must send exactly those rows to its first
    branch, the left leaf, which predicts 1.
    """
    X = np.asarray(X, dtype=float)
    s1, s2 = partition(X, theta1, theta2, kind)
    assert loop_from(X, np.zeros(len(X)), theta1, theta2, kind).partition_sizes[0] == (
        s1.size, s2.size)
    d = X.shape[1]
    left, right = (Leaf(theta=np.r_[np.zeros(d), value], n_train=1) for value in (1.0, 0.0))
    root = Internal(split=split.Split(kind=kind, theta1=theta1, theta2=theta2), left=left,
                    right=right)
    model = HrtModel(root=root, d=d, config=TreeConfig(), stats=train_stats(root))
    assert np.array_equal(np.flatnonzero(predict_batch(model, X) == 1.0), s1)
    return s1


# "newton_step" and "backtracking_step" are one fixed and one line-searched step
# (one_step); "damped_update" is the reference step, which checks its inputs as the
# package does.
CHECKED_ENTRY_POINTS = {
    "select_split": lambda X, y: select_split(X, y, SplitConfig()),
    "find_optimal_split": lambda X, y: find_optimal_split(X, y, HingeKind.MAX, SplitConfig()),
    "initialize_params": lambda X, y: initialize_params(X, y),
    "objective": lambda X, y: objective(X, y, np.zeros(3), np.ones(3), HingeKind.MAX),
    "newton_step": lambda X, y: one_step(X, y, np.zeros(3), np.ones(3), HingeKind.MAX, 0.5),
    "backtracking_step": lambda X, y: one_step(
        X, y, np.zeros(3), np.ones(3), HingeKind.MAX, "auto"),
    "damped_update": lambda X, y: damped_update(
        X, y, np.arange(15), np.arange(15, 30), np.zeros(3), np.ones(3), 0.5),
}


class TestInputChecks:
    @pytest.mark.parametrize("entry", sorted(CHECKED_ENTRY_POINTS))
    # A finite 1e160 overflows its column's sum of squares, a diagonal of the normal equations.
    @pytest.mark.parametrize("target, value", [("X", np.nan), ("X", -np.inf), ("X", 1e160),
                                               ("y", np.nan), ("y", np.inf), ("y", -1e160)])
    def test_non_finite_input_rejected(self, entry, target, value):
        X, y = random_regression(21, 30, 2)
        if target == "X":
            X[7, 1] = value
        else:
            y[11] = value
        with pytest.raises(NonFiniteInput):
            CHECKED_ENTRY_POINTS[entry](X, y)

    @pytest.mark.parametrize("entry", sorted(CHECKED_ENTRY_POINTS))
    def test_row_count_mismatch_rejected(self, entry):
        X, y = random_regression(22, 30, 2)
        with pytest.raises(DimensionMismatch):
            CHECKED_ENTRY_POINTS[entry](X, y[:-1])


# Every call that takes a (theta1, theta2) pair, on 30 rows of 2 features.
PAIR_ENTRY_POINTS = {
    "objective": lambda X, y, t1, t2: objective(X, y, t1, t2, HingeKind.MAX),
    "partition": lambda X, y, t1, t2: partition(X, t1, t2, HingeKind.MIN),
    "newton_step": lambda X, y, t1, t2: one_step(X, y, t1, t2, HingeKind.MAX, 0.5),
    "backtracking_step": lambda X, y, t1, t2: one_step(X, y, t1, t2, HingeKind.MIN, "auto"),
    "damped_update": lambda X, y, t1, t2: damped_update(
        X, y, np.arange(15), np.arange(15, 30), t1, t2, 0.5),
    "find_optimal_split": lambda X, y, t1, t2: find_optimal_split(
        X, y, HingeKind.MAX, SplitConfig(step="auto"), (t1, t2)),
}


class TestParameterPairChecks:
    @pytest.mark.parametrize("entry", sorted(PAIR_ENTRY_POINTS))
    @pytest.mark.parametrize("which", [0, 1])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_parameter_rejected(self, entry, which, value):
        X, y = random_regression(23, 30, 2)
        pair = [np.zeros(3), np.ones(3)]
        pair[which][which] = value
        with pytest.raises(NonFiniteInput):
            PAIR_ENTRY_POINTS[entry](X, y, *pair)

    @pytest.mark.parametrize("entry", sorted(PAIR_ENTRY_POINTS))
    @pytest.mark.parametrize("which", [0, 1])
    @pytest.mark.parametrize("shape", [(2,), (4,), (3, 1), ()])
    def test_wrong_length_parameter_rejected(self, entry, which, shape):
        X, y = random_regression(24, 30, 2)
        pair = [np.zeros(3), np.ones(3)]
        pair[which] = np.ones(shape)
        with pytest.raises(DimensionMismatch):
            PAIR_ENTRY_POINTS[entry](X, y, *pair)

    @pytest.mark.parametrize("start", [(np.zeros(3),), (np.zeros(3), np.ones(3), np.ones(3))])
    def test_start_must_be_a_pair(self, start):
        X, y = random_regression(25, 30, 2)
        with pytest.raises(DimensionMismatch):
            find_optimal_split(X, y, HingeKind.MAX, SplitConfig(), start)

    @pytest.mark.parametrize("kind", ["max", "min", None])
    def test_kind_must_be_a_hinge_kind(self, kind):
        # The string "max" used to run the min hinge, find_optimal_split
        # labelled that outcome "max", and a Split of kind "max" routed as a min hinge.
        X, y = random_regression(28, 30, 2)
        t1, t2 = np.zeros(3), np.ones(3)
        calls = [lambda: objective(X, y, t1, t2, kind), lambda: partition(X, t1, t2, kind),
                 lambda: find_optimal_split(X, y, kind, SplitConfig(), (t1, t2)),
                 lambda: one_step(X, y, t1, t2, kind, "auto"),
                 lambda: split.Split(kind=kind, theta1=t1, theta2=t2)]
        for call in calls:
            with pytest.raises(TypeError):
                call()

    def test_nan_start_no_longer_converges_to_nan(self):
        # A NaN start used to come back converged, with NaN parameters and the trace [nan].
        X, y = random_regression(26, 30, 2)
        with pytest.raises(NonFiniteInput):
            find_optimal_split(X, y, HingeKind.MAX, SplitConfig(step="auto"),
                               (np.full(3, np.nan), np.ones(3)))


# The calls that take a ridge penalty (and the steps a min_subset).
STEP_ARGUMENTS = {
    "initialize_params": lambda X, y, alpha, min_subset: initialize_params(X, y, alpha),
    "newton_step": lambda X, y, alpha, min_subset: one_step(
        X, y, np.zeros(3), np.ones(3), HingeKind.MAX, 0.5, ridge_alpha=alpha,
        min_subset=min_subset),
    "damped_update": lambda X, y, alpha, min_subset: damped_update(
        X, y, np.arange(15), np.arange(15, 30), np.zeros(3), np.ones(3), 0.5, alpha, min_subset),
}


class TestStepArgumentChecks:
    @pytest.mark.parametrize("entry", sorted(STEP_ARGUMENTS))
    @pytest.mark.parametrize("alpha", [np.nan, np.inf, -1.0])
    def test_ridge_penalty_outside_zero_to_inf_rejected(self, entry, alpha):
        # A NaN penalty used to fit as if it were 0, bit for bit.
        X, y = random_regression(29, 30, 2)
        with pytest.raises(ValueError, match="ridge"):
            STEP_ARGUMENTS[entry](X, y, alpha, 2)

    @pytest.mark.parametrize("entry", ["newton_step", "damped_update"])
    @pytest.mark.parametrize("min_subset", [0, -1])
    def test_min_subset_below_one_rejected(self, entry, min_subset):
        # damped_update used to run as if min_subset were 1.
        X, y = random_regression(30, 30, 2)
        with pytest.raises(ValueError, match="min_subset must be a positive integer"):
            STEP_ARGUMENTS[entry](X, y, 0.0, min_subset)

    @pytest.mark.parametrize("min_subset", [0, -1])
    def test_min_subset_below_one_rejected_with_an_empty_side(self, min_subset):
        # It used to raise "design matrix must be 2-D with at least one row".
        X, y = vee_data()
        with pytest.raises(ValueError, match="min_subset must be a positive integer"):
            damped_update(X, y, [], np.arange(4), np.array([1.0, 0.0]),
                          np.array([-1.0, 0.0]), 1.0, 0.0, min_subset)


class TestConfigValidation:
    @pytest.mark.parametrize("config, field, value", [
        (SplitConfig, "t_max", 0),
        (SplitConfig, "step", "fast"),
        (SplitConfig, "step", 0.0),
        (SplitConfig, "step", 1.5),
        (SplitConfig, "mu0", 0.0),
        (SplitConfig, "beta", 1.0),
        (SplitConfig, "beta", 0.0),
        (SplitConfig, "max_backtracks", 0),
        (SplitConfig, "epsilon", 0.0),
        (SplitConfig, "ridge_alpha", -1e-3),
        (SplitConfig, "min_subset", 0),
        (TreeConfig, "d_max", -1),
        (TreeConfig, "n_min", 3),
        (TreeConfig, "tau_rmse", -0.1),
        (BoostConfig, "m_stages", -1),
        (BoostConfig, "eta", 0.0),
        (BoostConfig, "eta", 1.5),
        # NaN, booleans and values of the wrong kind, which no range test sees.
        (SplitConfig, "epsilon", float("nan")),
        (SplitConfig, "mu0", float("nan")),
        (SplitConfig, "beta", float("nan")),
        (SplitConfig, "step", float("nan")),
        (SplitConfig, "ridge_alpha", float("inf")),
        (SplitConfig, "step", True),
        (SplitConfig, "ridge_alpha", True),
        (SplitConfig, "t_max", 2.7),
        (SplitConfig, "seed", 1.5),
        (SplitConfig, "max_backtracks", "30"),
        (SplitConfig, "min_subset", None),
        (TreeConfig, "d_max", True),
        (TreeConfig, "n_min", 5.0),
        (TreeConfig, "tau_rmse", float("nan")),
        (TreeConfig, "split", {}),
        (BoostConfig, "m_stages", 2.5),
        (BoostConfig, "m_stages", True),
        (BoostConfig, "eta", float("nan")),
        (BoostConfig, "eta", "0.1"),
        (BoostConfig, "tree", SplitConfig()),
        (BoostConfig, "tree", None),
    ])
    def test_bad_value_names_its_field(self, config, field, value):
        with pytest.raises(ValueError, match=rf"\b{field}\b"):
            config(**{field: value})

    def test_numpy_scalars_are_numbers(self):
        # Stored as builtin numbers, so that the config writes to JSON; an int in a real
        # field keeps its type.
        split = SplitConfig(t_max=np.int64(5), seed=np.uint64(7), epsilon=np.float32(0.5),
                            step=np.float64(0.25), ridge_alpha=0)
        tree = TreeConfig(d_max=np.int32(2), tau_rmse=np.float64(0.0), split=split)
        boost = BoostConfig(m_stages=np.int64(3), eta=np.float64(0.5), tree=tree)
        assert boost.tree is tree
        values = [split.t_max, split.seed, split.epsilon, split.step, split.ridge_alpha,
                  tree.d_max, tree.tau_rmse, boost.m_stages, boost.eta]
        assert [(type(v), v) for v in values] == [
            (int, 5), (int, 7), (float, 0.5), (float, 0.25), (int, 0), (int, 2), (float, 0.0),
            (int, 3), (float, 0.5)]

    def test_boost_tree_defaults_to_the_base_learner_config(self):
        assert BoostConfig().tree == default_boost_tree_config()


class TestObjective:
    """The oracle's objective, and the split loop's, which must have its bits."""

    def test_exact_piecewise_fit_of_abs(self):
        X, y = vee_data()
        t1 = np.array([1.0, 0.0])
        t2 = np.array([-1.0, 0.0])
        assert objective(X, y, t1, t2, HingeKind.MAX) == 0.0
        assert loop_from(X, y, t1, t2, HingeKind.MAX).objective_trace[0] == 0.0

    def test_collapsed_hinge_equals_linear_residual(self):
        X, y = random_regression(0, 25, 3)
        Xa = augment(X)
        theta = ridge_solve(Xa, y, 0.0)
        r = y - Xa @ theta
        expected = 0.5 * float(r @ r)
        for kind in HingeKind:
            assert objective(X, y, theta, theta, kind) == pytest.approx(expected, rel=1e-14)
            assert loop_from(X, y, theta, theta, kind).objective_trace[0] == objective(
                X, y, theta, theta, kind)

    def test_per_sample_recomputation_oracle(self):
        X = np.array([[0.0], [1.0], [2.0]])
        y = np.array([0.0, 2.0, 1.0])
        t1 = np.array([1.0, 0.0])
        t2 = np.array([0.0, 1.0])
        total = 0.0
        for xi, yi in zip(X, y):
            h = max(xi[0] * t1[0] + t1[1], xi[0] * t2[0] + t2[1])
            total += 0.5 * (yi - h) ** 2
        assert total == pytest.approx(1.5)
        assert objective(X, y, t1, t2, HingeKind.MAX) == pytest.approx(1.5, rel=1e-15)
        assert loop_from(X, y, t1, t2, HingeKind.MAX).objective_trace[0] == objective(
            X, y, t1, t2, HingeKind.MAX)


class TestPartition:
    """The tie rule, on the oracle's partition, the split loop's sizes and the tree's routing."""

    def test_sign_split(self):
        X = np.array([[-1.5], [-0.2], [0.0], [0.7], [2.0]])
        t1 = np.array([1.0, 0.0])
        t2 = np.array([0.0, 0.0])
        s1, s2 = partition(X, t1, t2, HingeKind.MAX)
        assert sorted(s1) == [2, 3, 4]  # x >= 0, tie at 0 goes to S1
        assert sorted(s2) == [0, 1]
        assert first_side(X, t1, t2, HingeKind.MAX).tolist() == [2, 3, 4]

    def test_equal_parameters_tie_rule(self):
        X, y = random_regression(1, 12, 2)
        theta = np.array([0.3, -0.2, 0.1])
        for kind in HingeKind:
            s1, s2 = partition(X, theta, theta, kind)
            assert s1.size == 12 and s2.size == 0
            assert first_side(X, theta, theta, kind).size == 12

    def test_four_point_enumeration(self):
        X = np.array([[-2.0], [-1.0], [0.0], [1.0]])
        t1 = np.array([1.0, 0.0])
        t2 = np.array([0.0, 0.0])
        s1, s2 = partition(X, t1, t2, HingeKind.MAX)
        expected_s1 = [j for j in range(4) if X[j, 0] >= 0.0]
        assert sorted(s1) == expected_s1 == [2, 3]
        assert sorted(s2) == [0, 1]
        assert first_side(X, t1, t2, HingeKind.MAX).tolist() == [2, 3]

    def test_min_variant_flips_comparison(self):
        X = np.array([[-2.0], [-1.0], [0.0], [1.0]])
        t1 = np.array([1.0, 0.0])
        t2 = np.array([0.0, 0.0])
        s1, _ = partition(X, t1, t2, HingeKind.MIN)
        assert sorted(s1) == [0, 1, 2]  # x <= 0
        assert first_side(X, t1, t2, HingeKind.MIN).tolist() == [0, 1, 2]

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_value_rejected(self, value):
        # A NaN row used to go to the second side, with no error.
        with pytest.raises(NonFiniteInput):
            partition([[value], [1.0], [-1.0]], [1.0, 0.0], [-1.0, 0.0], HingeKind.MAX)

    def test_exhaustive_and_disjoint_on_random_instances(self):
        for seed in range(25):
            gen = np.random.default_rng(seed)
            X, _ = random_regression(seed, int(gen.integers(2, 40)), int(gen.integers(1, 5)))
            t1 = gen.normal(size=X.shape[1] + 1)
            t2 = gen.normal(size=X.shape[1] + 1)
            for kind in HingeKind:
                s1, s2 = partition(X, t1, t2, kind)
                merged = np.sort(np.concatenate([s1, s2]))
                assert np.array_equal(merged, np.arange(X.shape[0]))
                assert np.array_equal(first_side(X, t1, t2, kind), s1)


class TestRefit:
    def test_singular_side_falls_back_to_single_side_fits(self):
        # S1's rows are identical, so the stacked factorization fails at
        # alpha = 0 and each side is refitted on its own.
        gen = np.random.default_rng(5)
        X = np.vstack([np.tile([[0.5, -1.0]], (6, 1)), gen.normal(size=(20, 2))])
        y = gen.normal(size=26)
        Xa = augment(X)
        s1, s2 = np.arange(6), np.arange(6, 26)
        t1, t2 = gen.normal(size=3), gen.normal(size=3)
        assert ridge_solve_pair(Xa[s1], y[s1], Xa[s2], y[s2], 0.0) is None
        for alpha in (0.0, 1e-3):
            target, alone = split._refit(Xa, y, s1, s2, np.array((t1, t2)), alpha, 2)
            assert np.array_equal(target[0], split._fit_subset(Xa, y, s1, alpha, 2, t1))
            assert np.array_equal(target[1], split._fit_subset(Xa, y, s2, alpha, 2, t2))
            assert alone  # the jitter retry fits S1, so neither side keeps its parameters

    def test_undersized_side_keeps_its_parameters(self):
        gen = np.random.default_rng(6)
        Xa = augment(gen.normal(size=(10, 2)))
        y = gen.normal(size=10)
        t1, t2 = gen.normal(size=3), gen.normal(size=3)
        target, alone = split._refit(Xa, y, np.arange(1), np.arange(1, 10), np.array((t1, t2)),
                                     1e-3, 2)
        assert not alone
        assert np.array_equal(target[0], t1)
        assert np.array_equal(target[1], ridge_solve(Xa[1:], y[1:], 1e-3))


class TestNewtonStep:
    def test_unit_step_lands_on_subset_fits(self):
        X, y = random_regression(7, 40, 3)
        gen = np.random.default_rng(7)
        t1 = gen.normal(size=4)
        t2 = gen.normal(size=4)
        _, n1, n2 = one_step(X, y, t1, t2, HingeKind.MAX, 1.0, ridge_alpha=0.05)
        Xa = augment(X)
        s1, s2 = partition(X, t1, t2, HingeKind.MAX)
        # The oracle gathers rows by fancy indexing, outside the refit.
        assert np.array_equal(n1, ridge_solve(Xa[s1], y[s1], 0.05))
        assert np.array_equal(n2, ridge_solve(Xa[s2], y[s2], 0.05))

    def test_vanishing_step_limit(self):
        X, y = random_regression(8, 30, 2)
        gen = np.random.default_rng(8)
        t1 = gen.normal(size=3)
        t2 = gen.normal(size=3)
        _, full1, full2 = one_step(X, y, t1, t2, HingeKind.MAX, 1.0, ridge_alpha=0.0)
        _, tiny1, tiny2 = one_step(X, y, t1, t2, HingeKind.MAX, 1e-9, ridge_alpha=0.0)
        move = np.linalg.norm(tiny1 - t1) + np.linalg.norm(tiny2 - t2)
        target = np.linalg.norm(full1 - t1) + np.linalg.norm(full2 - t2)
        assert move <= 1e-6 * target

    def test_half_step_is_midpoint(self):
        X, y = random_regression(9, 30, 2)
        gen = np.random.default_rng(9)
        t1 = gen.normal(size=3)
        t2 = gen.normal(size=3)
        _, full1, full2 = one_step(X, y, t1, t2, HingeKind.MIN, 1.0, ridge_alpha=0.0)
        _, half1, half2 = one_step(X, y, t1, t2, HingeKind.MIN, 0.5, ridge_alpha=0.0)
        np.testing.assert_allclose(half1, 0.5 * (t1 + full1), rtol=1e-12)
        np.testing.assert_allclose(half2, 0.5 * (t2 + full2), rtol=1e-12)

    def test_undersized_side_frozen(self):
        # All samples land in S1, so theta2 must come back unchanged.  Three
        # rows are a node for min_subset 1 only.
        X = np.array([[1.0], [2.0], [3.0]])
        y = np.array([1.0, 2.0, 3.0])
        t1 = np.array([10.0, 10.0])
        t2 = np.array([-10.0, -10.0])
        _, n1, n2 = one_step(X, y, t1, t2, HingeKind.MAX, 1.0, ridge_alpha=0.0, min_subset=1)
        assert np.array_equal(n2, t2)
        np.testing.assert_allclose(n1, [1.0, 0.0], atol=1e-8)

    def test_mu_out_of_range_rejected(self):
        X, y = vee_data()
        t = np.array([0.0, 0.0])
        for mu in (0.0, -3.0, 1.5, np.nan):
            with pytest.raises(ValueError):
                one_step(X, y, t, t, HingeKind.MAX, mu)

    @pytest.mark.parametrize("step", [0.5, "auto"])
    def test_fewer_than_two_min_subsets_of_rows_rejected(self, step):
        # A single step needs a node of 2 * min_subset rows, as the loop does.
        X, y = vee_data()
        t1, t2 = np.array([0.9, 0.05]), np.array([-0.9, 0.05])
        with pytest.raises(TooFewSamples, match="need at least 6 samples, got 4"):
            one_step(X, y, t1, t2, HingeKind.MAX, step, min_subset=3)
        one_step(X, y, t1, t2, HingeKind.MAX, step, min_subset=2)


class TestDampedUpdate:
    @pytest.mark.parametrize("mu", [0.0, -3.0, 1.5, np.nan, np.inf])
    def test_mu_out_of_range_rejected(self, mu):
        X, y = vee_data()
        with pytest.raises(ValueError):
            damped_update(X, y, [2, 3], [0, 1], np.array([1.0, 0.0]), np.array([-1.0, 0.0]), mu)

    @pytest.mark.parametrize("sides", [
        (np.array([False, False, True, True]), np.array([True, True, False, False])),
        (np.array([2.0, 3.0]), np.array([0.0, 1.0])),
        (np.array([[2, 3]]), np.array([0, 1])),
        (np.array([2, 3]), np.array([0, 4])),
        (np.array([2, 3]), np.array([-1, 0])),
    ], ids=["boolean-masks", "float-indices", "2-d", "past-the-end", "negative"])
    def test_malformed_sides_rejected(self, sides):
        X, y = vee_data()
        with pytest.raises(ValueError):
            damped_update(X, y, *sides, np.array([1.0, 0.0]), np.array([-1.0, 0.0]), 1.0)

    @pytest.mark.parametrize("empty", [[], np.array([], dtype=int), np.array([])])
    def test_an_empty_side_keeps_its_parameters(self, empty):
        X, y = vee_data()
        t1, t2 = np.array([1.0, 0.0]), np.array([-1.0, 0.0])
        n1, n2 = damped_update(X, y, empty, np.arange(4), t1, t2, 1.0)
        assert np.array_equal(n1, t1)
        assert n2.tobytes() == ridge_solve(augment(X), y).tobytes()

    def test_integer_indices_of_any_width_match_partition(self):
        X, y = random_regression(27, 40, 2)
        t1, t2 = np.array([1.0, -0.5, 0.2]), np.array([-0.3, 0.8, 0.0])
        s1, s2 = partition(X, t1, t2, HingeKind.MAX)
        want = damped_update(X, y, s1, s2, t1, t2, 0.5)
        for dtype in (np.int32, np.uint16):
            got = damped_update(X, y, s1.astype(dtype), s2.astype(dtype), t1, t2, 0.5)
            assert all(g.tobytes() == w.tobytes() for g, w in zip(got, want))


class TestBacktrackingStep:
    def test_quadratic_regime_accepts_unit_step(self):
        # Stable partition: the unit step reaches the per-subset optimum,
        # so the first candidate already decreases the objective.
        X, y = vee_data()
        t1 = np.array([0.9, 0.05])
        t2 = np.array([-0.9, 0.05])
        mu, n1, n2 = one_step(X, y, t1, t2, HingeKind.MAX, "auto", ridge_alpha=0.0)
        assert mu == 1.0
        np.testing.assert_allclose(n1, [1.0, 0.0], atol=1e-10)
        np.testing.assert_allclose(n2, [-1.0, 0.0], atol=1e-10)

    def test_zero_direction_returns_zero(self):
        X, y = vee_data()
        t1 = np.array([1.0, 0.0])
        t2 = np.array([-1.0, 0.0])
        mu, n1, n2 = one_step(X, y, t1, t2, HingeKind.MAX, "auto", ridge_alpha=0.0)
        assert mu == 0.0
        assert np.array_equal(n1, t1) and np.array_equal(n2, t2)

    def test_fixed_point_evaluates_no_candidate(self, monkeypatch):
        X, y = vee_data()
        # The unit step's targets keep the partition, so they are a fixed point.
        _, t1, t2 = one_step(X, y, [0.9, 0.05], [-0.9, 0.05], HingeKind.MAX, 1.0, ridge_alpha=0.0)
        _, n1, n2 = one_step(X, y, t1, t2, HingeKind.MAX, 1.0, ridge_alpha=0.0)
        assert np.array_equal(n1, t1) and np.array_equal(n2, t2)
        evaluations = record_calls(monkeypatch, "_evaluate")
        mu, n1, n2 = one_step(X, y, t1, t2, HingeKind.MAX, "auto", ridge_alpha=0.0)
        assert len(evaluations) == 1  # the objective at (t1, t2), and no candidate
        assert mu == 0.0
        assert np.array_equal(n1, t1) and np.array_equal(n2, t2)

    def test_accepts_quarter_step_on_oscillatory_node(self):
        # Frozen state on a noisy oscillatory dataset where the unit and
        # half steps increase the objective but the quarter step drops it.
        ds = gen_synthetic("sinc", 120, 0.025, seed=0)
        X, y = ds.X, ds.y
        t1 = np.array([-0.01562718355690073, -0.02150449737675517])
        t2 = np.array([0.06453781539770846, -0.10597404253663129])
        v0 = objective(X, y, t1, t2, HingeKind.MAX)
        Xa = augment(X)
        s1, s2 = partition(X, t1, t2, HingeKind.MAX)
        f1 = ridge_solve(Xa[s1], y[s1], 0.0)
        f2 = ridge_solve(Xa[s2], y[s2], 0.0)
        values = {mu: objective(X, y, t1 + mu * (f1 - t1), t2 + mu * (f2 - t2),
                                HingeKind.MAX)
                  for mu in (1.0, 0.5, 0.25)}
        assert values[1.0] >= v0 and values[0.5] >= v0 and values[0.25] < v0
        mu, _, _ = one_step(X, y, t1, t2, HingeKind.MAX, "auto", ridge_alpha=0.0)
        assert mu == 0.25


class TestFindOptimalSplit:
    def test_fits_abs_exactly_with_max(self):
        X, y = vee_data()
        out = find_optimal_split(X, y, HingeKind.MAX,
                                 SplitConfig(step=1.0, ridge_alpha=0.0, seed=1))
        assert out.converged
        assert out.objective_trace[-1] <= 1e-10

    def test_fits_negated_abs_with_min(self):
        X, y = vee_data()
        out = find_optimal_split(X, -y, HingeKind.MIN,
                                 SplitConfig(step=1.0, ridge_alpha=0.0, seed=1))
        assert out.objective_trace[-1] <= 1e-10

    def test_sinc_objective_improves_and_auto_trace_decreases(self):
        ds = gen_synthetic("sinc", 200, 0.0, seed=3)
        fixed = find_optimal_split(ds.X, ds.y, HingeKind.MAX,
                                   SplitConfig(step=0.05, t_max=100, seed=3))
        assert fixed.objective_trace[-1] < fixed.objective_trace[0]
        auto = find_optimal_split(ds.X, ds.y, HingeKind.MAX,
                                  SplitConfig(step="auto", t_max=100, seed=3))
        trace = auto.objective_trace
        assert auto.iterations > 0
        for k in range(auto.iterations):
            assert trace[k + 1] < trace[k]

    def test_auto_run_ending_on_a_zero_direction_evaluates_no_candidate(self, monkeypatch):
        X, y = hinge_regression(0, 100, 2, noise=0.1)
        config = SplitConfig(step="auto", epsilon=1e-12, seed=0)
        kind = HingeKind.MAX
        evaluations = record_calls(monkeypatch, "_evaluate")
        out = find_optimal_split(X, y, kind, config)
        monkeypatch.undo()
        assert out.converged and out.iterations < config.t_max
        # The run stopped at a fixed point: the last search's direction was zero.
        _, n1, n2 = one_step(X, y, out.theta1, out.theta2, kind, 1.0,
                             ridge_alpha=config.ridge_alpha, min_subset=config.min_subset)
        assert np.array_equal(n1, out.theta1) and np.array_equal(n2, out.theta2)
        # Accepted steps are mu0 * beta**s, after s rejected candidates each.
        candidates = sum(1 + round(np.log(config.mu0 / mu) / np.log(1.0 / config.beta))
                         for mu in out.mu_trace)
        assert candidates > out.iterations  # some steps were backtracked
        assert len(evaluations) == 1 + candidates
        t1, t2, trace, mus, converged = replay_public_steps(X, y, kind, config)
        assert np.array_equal(out.theta1, t1) and np.array_equal(out.theta2, t2)
        assert out.objective_trace == trace and out.mu_trace == mus
        assert out.converged == converged

    def test_trace_length_matches_iterations(self):
        ds = gen_synthetic("twisted_sigmoid", 120, 0.025, seed=5)
        for step in (0.3, "auto"):
            out = find_optimal_split(ds.X, ds.y, HingeKind.MAX,
                                     SplitConfig(step=step, seed=5))
            assert len(out.objective_trace) == out.iterations + 1
            assert len(out.mu_trace) == out.iterations
            assert len(out.partition_sizes) == out.iterations + 1

    def test_too_few_samples(self):
        X = np.array([[0.0], [1.0], [2.0]])
        with pytest.raises(TooFewSamples):
            find_optimal_split(X, np.zeros(3), HingeKind.MAX, SplitConfig(min_subset=2))


class TestPublicStepReplay:
    def test_loop_iterates_the_public_steps_bit_for_bit(self):
        # 30 datasets x {fixed, auto} x {max, min} = 120 cases, d in 1..4.
        for seed in range(30):
            gen = np.random.default_rng(seed)
            n = int(gen.integers(12, 80))
            d = 1 + seed % 4
            X, y = hinge_regression(seed, n, d, noise=0.1)
            alpha = float(gen.choice([0.0, 1e-3]))
            fixed = float(gen.choice([0.01, 0.1, 0.5, 1.0]))
            for step in (fixed, "auto"):
                config = SplitConfig(step=step, ridge_alpha=alpha, seed=seed)
                for kind in HingeKind:
                    out = find_optimal_split(X, y, kind, config)
                    t1, t2, trace, mus, converged = replay_public_steps(X, y, kind, config)
                    assert np.array_equal(out.theta1, t1) and np.array_equal(out.theta2, t2)
                    assert out.objective_trace == trace
                    assert out.mu_trace == mus
                    assert out.converged == converged


def record_calls(monkeypatch, name):
    """Wrap ``split.<name>``; the returned list gets each call's result."""
    results = []
    real = getattr(split, name)

    def recorded(*args, **kwargs):
        results.append(real(*args, **kwargs))
        return results[-1]

    monkeypatch.setattr(split, name, recorded)
    return results


class TestRefitReuse:
    def test_one_pair_solve_per_distinct_partition(self, monkeypatch):
        X, y = hinge_regression(0, 100, 2, noise=0.1)
        config = SplitConfig(step=0.01, epsilon=1e-4, seed=0)
        kind = HingeKind.MAX
        # The partition each iteration refits, replayed with the public steps.
        firsts = []
        u1, u2, trace, mus, converged = replay_public_steps(X, y, kind, config, firsts=firsts)
        assert all(min(s1.size, len(y) - s1.size) >= config.min_subset for s1 in firsts)

        start = initialize_params(X, y, config.ridge_alpha, config.seed)
        # The start is passed so that only the loop's solves are counted.
        calls = record_calls(monkeypatch, "ridge_solve_pair")
        out = find_optimal_split(X, y, kind, config, start)
        assert out.iterations == len(firsts)
        runs = 1 + sum(not np.array_equal(a, b) for a, b in zip(firsts, firsts[1:]))
        # A partition and its complement are one refit, with the two sides swapped.
        distinct = len({unordered_partition(s1, len(y)) for s1 in firsts})
        # The run comes back to earlier partitions, not only to the last one.
        assert distinct < runs < len(firsts) // 2
        assert len(calls) == distinct
        assert np.array_equal(out.theta1, u1) and np.array_equal(out.theta2, u2)
        assert out.objective_trace == trace and out.mu_trace == mus
        assert out.converged == converged

    def test_partition_held_with_an_undersized_side_refits_every_iteration(self, monkeypatch):
        # Only the last row lies on the first side, and the small fixed step
        # keeps it there: that side keeps its parameters at every iteration.
        X = np.linspace(-1.0, 1.0, 40)[:, None]
        y = 0.1 * X[:, 0] - 1.0
        start = (np.array([50.0, -49.9]), np.array([0.0, 0.0]))
        config = SplitConfig(step=0.01, t_max=20, epsilon=1e-9, min_subset=2, seed=0)
        pair_calls = record_calls(monkeypatch, "ridge_solve_pair")
        side_calls = record_calls(monkeypatch, "ridge_solve")
        out = find_optimal_split(X, y, HingeKind.MAX, config, start)
        assert set(out.partition_sizes) == {(1, 39)}
        assert out.iterations == config.t_max
        assert np.array_equal(out.theta1, start[0])
        assert pair_calls == [] and len(side_calls) == config.t_max
        monkeypatch.undo()
        t1, t2, trace, mus, converged = replay_public_steps(X, y, HingeKind.MAX, config, start)
        assert np.array_equal(out.theta1, t1) and np.array_equal(out.theta2, t2)
        assert out.objective_trace == trace and out.mu_trace == mus
        assert out.converged == converged


class TestSelectSplit:
    def test_vee_selects_max(self):
        X, y = vee_data()
        out = select_split(X, y, SplitConfig(step=1.0, ridge_alpha=0.0, seed=2))
        assert out.kind is HingeKind.MAX
        assert out.objective_trace[-1] <= 1e-10

    def test_concave_vee_selects_min(self):
        X, y = vee_data()
        out = select_split(X, -y, SplitConfig(step=1.0, ridge_alpha=0.0, seed=2))
        assert out.kind is HingeKind.MIN

    def test_linear_data_both_variants_agree(self):
        gen = np.random.default_rng(4)
        X = np.sort(gen.uniform(-1, 1, size=(40, 1)), axis=0)
        y = 2.0 * X[:, 0] + 1.0
        config = SplitConfig(step=1.0, ridge_alpha=0.0, seed=4)
        out_max = find_optimal_split(X, y, HingeKind.MAX, config)
        out_min = find_optimal_split(X, y, HingeKind.MIN, config)
        Xa = augment(X)
        pred_max = np.maximum(Xa @ out_max.theta1, Xa @ out_max.theta2)
        pred_min = np.minimum(Xa @ out_min.theta1, Xa @ out_min.theta2)
        np.testing.assert_allclose(pred_max, y, atol=1e-8)
        np.testing.assert_allclose(pred_max, pred_min, atol=1e-8)

    def test_exact_rmse_tie_goes_to_max(self, monkeypatch):
        import hingetree.split as split_mod

        X, y = vee_data()
        outcomes = {}
        real = split_mod.find_optimal_split

        def record(Xd, yd, kind, config, start=None, **private):
            out = real(Xd, yd, kind, config, start, **private)
            out.objective_trace[-1] = 1.0  # force an exact tie
            outcomes[kind] = out
            return out

        monkeypatch.setattr(split_mod, "find_optimal_split", record)
        chosen = split_mod.select_split(X, y, SplitConfig(step=1.0, seed=0))
        assert chosen is outcomes[HingeKind.MAX]

    def test_both_variants_start_from_one_initialization(self, monkeypatch):
        X, y = random_regression(8, 60, 2, noise=0.3)
        config = SplitConfig(step="auto", seed=8)
        expected = {kind: find_optimal_split(X, y, kind, config) for kind in HingeKind}
        inits = record_calls(monkeypatch, "initialize_params")
        starts, outcomes = {}, {}
        real = split.find_optimal_split

        def record(Xd, yd, kind, config, start=None, **private):
            starts[kind] = start
            outcomes[kind] = real(Xd, yd, kind, config, start, **private)
            return outcomes[kind]

        monkeypatch.setattr(split, "find_optimal_split", record)
        split.select_split(X, y, config)
        assert len(inits) == 1
        assert starts[HingeKind.MAX] is inits[0] and starts[HingeKind.MIN] is inits[0]
        # The max variant leaves the shared start as it found it, so each
        # variant ends where it ends from its own initialization.
        for kind in HingeKind:
            assert np.array_equal(outcomes[kind].theta1, expected[kind].theta1)
            assert np.array_equal(outcomes[kind].theta2, expected[kind].theta2)
            assert outcomes[kind].objective_trace == expected[kind].objective_trace

    def test_too_few_samples_raised_before_initialization(self, monkeypatch):
        inits = record_calls(monkeypatch, "initialize_params")
        with pytest.raises(TooFewSamples, match="^need at least 4 samples, got 3$"):
            split.select_split(np.zeros((3, 1)), np.zeros(3), SplitConfig(min_subset=2))
        # One row is too few for initialization as well; the split's message wins.
        with pytest.raises(TooFewSamples, match="^need at least 2 samples, got 1$"):
            split.select_split(np.zeros((1, 1)), np.zeros(1), SplitConfig(min_subset=1))
        assert inits == []

    def test_never_worse_than_either_variant(self):
        for seed in range(10):
            X, y = random_regression(seed, 60, 2, noise=0.3)
            config = SplitConfig(step="auto", seed=seed)
            chosen = select_split(X, y, config)
            n = len(y)
            rmse = np.sqrt(2 * chosen.objective_trace[-1] / n)
            for kind in HingeKind:
                single = find_optimal_split(X, y, kind, config)
                assert rmse <= np.sqrt(2 * single.objective_trace[-1] / n) + 1e-12

    def test_variant_iterations_recorded(self):
        X, y = random_regression(6, 50, 2)
        out = select_split(X, y, SplitConfig(step="auto", seed=6))
        assert out.variant_iterations is not None
        assert all(v >= 0 for v in out.variant_iterations)

    def test_bit_identical_across_runs(self):
        X, y = random_regression(12, 80, 3, noise=0.4)
        config = SplitConfig(step="auto", seed=99)
        a = select_split(X, y, config)
        b = select_split(X, y, config)
        assert np.array_equal(a.theta1, b.theta1)
        assert np.array_equal(a.theta2, b.theta2)
        assert a.objective_trace == b.objective_trace
        assert a.kind == b.kind


class TestInitializeParams:
    def test_pivots_on_largest_range_feature(self):
        # Vee-shaped in the wide feature: the two side fits cross inside
        # the data, so the initializer returns them untouched.
        gen = np.random.default_rng(13)
        x1 = gen.uniform(-5, 5, 60)     # the widest feature drives the pivot
        x2 = gen.uniform(-0.5, 0.5, 60)
        X = np.column_stack([x1, x2])
        y = np.abs(x1 - np.median(x1)) + 0.2 * x2
        t1, t2 = initialize_params(X, y, alpha=0.0, seed=0)
        low = x1 <= np.median(x1)
        Xa = augment(X)
        np.testing.assert_allclose(t1, ridge_solve(Xa[low], y[low], 0.0), atol=1e-12)
        np.testing.assert_allclose(t2, ridge_solve(Xa[~low], y[~low], 0.0), atol=1e-12)

    def test_two_samples_take_perturbation_branch(self):
        X = np.array([[0.0], [1.0]])
        y = np.array([0.0, 1.0])
        t1, t2 = initialize_params(X, y, alpha=0.0, seed=21)
        assert not np.array_equal(t1, t2)
        assert np.all(np.isfinite(t1)) and np.all(np.isfinite(t2))

    def test_median_split_fits_match_oracle(self):
        # Curved data keeps the two side fits distinct and their crossing
        # inside the sample range, so no rescue perturbs them.
        gen = np.random.default_rng(50)
        x = np.sort(gen.uniform(-1, 1, 50))
        y = x ** 2 + 0.01 * gen.normal(size=50)
        X = x.reshape(-1, 1)
        t1, t2 = initialize_params(X, y, alpha=0.01, seed=5)
        low = x <= np.median(x)
        Xa = augment(X)
        np.testing.assert_allclose(t1, ridge_solve(Xa[low], y[low], 0.01), atol=1e-12)
        np.testing.assert_allclose(t2, ridge_solve(Xa[~low], y[~low], 0.01), atol=1e-12)

    def test_one_sided_start_is_rebalanced(self):
        # Near-linear data gives two almost-parallel side fits whose hinge
        # boundary can miss the data entirely; the initializer must hand
        # back a two-sided starting partition.
        for seed in range(30):
            gen = np.random.default_rng(seed)
            x = np.sort(gen.uniform(-1, 1, 40))
            y = 2.0 * x + 1.0 + 0.05 * gen.normal(size=40)
            X = x.reshape(-1, 1)
            t1, t2 = initialize_params(X, y, alpha=0.0, seed=seed)
            s1, s2 = partition(X, t1, t2, HingeKind.MAX)
            assert s1.size > 0 and s2.size > 0

    @staticmethod
    def curved():
        """The data of test_median_split_fits_match_oracle: the start is the median refit."""
        gen = np.random.default_rng(50)
        x = np.sort(gen.uniform(-1, 1, 50))
        return x.reshape(-1, 1), x ** 2 + 0.01 * gen.normal(size=50)

    def test_median_split_is_one_pair_solve(self, monkeypatch):
        X, y = self.curved()
        pairs = record_calls(monkeypatch, "ridge_solve_pair")
        singles = record_calls(monkeypatch, "ridge_solve")
        t1, t2 = initialize_params(X, y, alpha=0.01, seed=5)
        assert len(pairs) == 1 and singles == []
        assert t1.tobytes() + t2.tobytes() == pairs[0].tobytes()

    def test_failed_pair_solve_falls_back_to_single_fits(self, monkeypatch):
        # The refit's recovery: each side is then fitted alone, with the same bits.
        X, y = self.curved()
        expected = initialize_params(X, y, alpha=0.01, seed=5)
        monkeypatch.setattr(split, "ridge_solve_pair", lambda *args: None)
        singles = record_calls(monkeypatch, "ridge_solve")
        t1, t2 = initialize_params(X, y, alpha=0.01, seed=5)
        assert len(singles) == 2
        assert (t1.tobytes(), t2.tobytes()) == (expected[0].tobytes(), expected[1].tobytes())

    def test_one_sample_raises(self):
        with pytest.raises(TooFewSamples, match="initialization needs at least 2 samples"):
            initialize_params(np.array([[1.0, 2.0]]), np.array([3.0]))

    def test_deterministic_given_seed(self):
        X, y = random_regression(2, 2, 3)
        a = initialize_params(X, y, 0.0, seed=7)
        b = initialize_params(X, y, 0.0, seed=7)
        c = initialize_params(X, y, 0.0, seed=8)
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])
        assert not np.array_equal(a[1], c[1])


class TestColumnRanges:
    @pytest.mark.parametrize("n, d", [(1, 1), (1, 3), (2, 1), (7, 2), (300, 1), (2000, 2),
                                      (129, 17)])
    def test_bits_of_the_axis_0_expression(self, n, d):
        gen = np.random.default_rng(n * 100 + d)
        X = gen.normal(size=(n, d))
        signed_zeros = np.where(gen.random((n, d)) < 0.5, 0.0, -0.0)
        constant = np.tile(gen.normal(size=(1, d)), (n, 1))
        for M in (X, signed_zeros, constant, np.where(gen.random((n, d)) < 0.3, signed_zeros, X),
                  np.asfortranarray(X), np.asfortranarray(signed_zeros)):
            expected = M.max(axis=0) - M.min(axis=0)
            assert split._column_ranges(M).tobytes() == expected.tobytes()

    @pytest.mark.parametrize("column", [[0.0, -0.0], [-0.0, 0.0], [0.0, -0.0, 0.0],
                                        [-0.0, -0.0], [2.5, 2.5, 2.5]])
    def test_constant_column_ranges(self, column):
        X = np.column_stack([column, np.arange(len(column), dtype=float)])
        expected = X.max(axis=0) - X.min(axis=0)
        assert split._column_ranges(X).tobytes() == expected.tobytes()


def median_cases():
    """``(id, values)``: odd and even lengths 1-9 and 2,000, ties, signed zeros and extremes."""
    gen = np.random.default_rng(5)
    specials = np.array([0.0, -0.0, 5e-324, -5e-324, 2.2e-308, 1e308, -1e308, 1.5, -1.5])
    cases = []
    for n in (*range(1, 10), 2000):
        cases += [
            (f"normal-{n}", gen.normal(size=n)),
            (f"ties-{n}", gen.integers(-2, 3, size=n).astype(float)),
            (f"zeros-{n}", gen.choice([0.0, -0.0], size=n)),
            (f"negative-zeros-{n}", np.full(n, -0.0)),
            (f"subnormal-{n}", gen.choice([5e-324, -5e-324, 1e-310, 0.0, -0.0], size=n)),
            (f"extreme-{n}", gen.choice([1e308, -1e308, 1.0], size=n)),
            (f"huge-{n}", np.full(n, 1e308)),
            (f"specials-{n}", gen.choice(specials, size=n)),
        ]
    return cases


class TestMedian:
    @pytest.mark.parametrize("values", [v for _, v in median_cases()],
                             ids=[i for i, _ in median_cases()])
    def test_bits_of_np_median(self, values):
        # A pair of 1e308s overflows in both, with the same warning.
        with np.errstate(over="ignore"):
            expected = float(np.median(values))
            got = split._median(values)
        assert type(got) is float and got.hex() == expected.hex()

    def test_strided_column_left_unchanged(self):
        X = np.random.default_rng(2).normal(size=(101, 3))
        before = X.copy()
        assert split._median(X[:, 1]).hex() == float(np.median(before[:, 1])).hex()
        assert X.tobytes() == before.tobytes()

    def test_no_np_median_in_a_fit(self, monkeypatch):
        def refused(*args, **kwargs):
            raise AssertionError("np.median called")

        monkeypatch.setattr(np, "median", refused)
        X, y = random_regression(3, 200, 2, noise=0.3)
        model = build_tree(X, y, TreeConfig(d_max=3, split=SplitConfig(t_max=3, seed=3)))
        assert model.stats.n_splits > model.stats.n_fallbacks > 0  # both medians were taken


def outcome_bits(out):
    """Everything a split outcome holds, its coefficients as bytes."""
    return (out.theta1.tobytes(), out.theta2.tobytes(), out.kind, out.converged, out.iterations,
            out.objective_trace, out.mu_trace, out.partition_sizes, out.variant_iterations)


class TestCheckedNode:
    @pytest.mark.parametrize("step", [0.01, "auto"])
    def test_select_split_with_a_node_has_the_bits_of_one_without(self, step):
        X, y = random_regression(14, 120, 3, noise=0.3)
        config = SplitConfig(step=step, seed=14)
        given = select_split(X, y, config, _node=split._checked_node(X, y))
        assert outcome_bits(given) == outcome_bits(select_split(X, y, config))

    def test_gathered_rows_are_the_checked_rows(self):
        X, y = random_regression(15, 50, 2)
        rows = np.flatnonzero(X[:, 0] >= 0.0)
        gathered = split._node_rows(split._checked_node(X, y), rows)
        checked = split._checked_node(X[rows], y[rows])
        for a, b in zip(gathered[:3], checked[:3]):
            assert a.flags.c_contiguous and a.tobytes() == b.tobytes() and a.shape == b.shape
        assert gathered.solved == {}

    def test_select_split_on_gathered_rows(self):
        X, y = random_regression(16, 150, 2, noise=0.3)
        rows = np.flatnonzero(X[:, 1] < 0.3)
        config = SplitConfig(step="auto", seed=16)
        node = split._node_rows(split._checked_node(X, y), rows)
        given = select_split(node.X, node.y, config, _node=node)
        assert outcome_bits(given) == outcome_bits(select_split(X[rows], y[rows], config))


class TestStartDraw:
    SEEDS = [0, 1, 2 ** 64 - 1, derive_seed(7, 3, 1)]

    @pytest.mark.parametrize("seed", SEEDS)
    def test_coinciding_sides_take_one_draw(self, seed, monkeypatch):
        X, _ = random_regression(17, 60, 2)
        # Both sides fit this line exactly, so the median refit's sides coincide.
        y = X.dot([0.5, -1.0]) + 2.0
        made, draws = [], []
        default_rng = np.random.default_rng

        class Counted:  # a generator that draws normals only, and counts them
            def __init__(self, s):
                made.append(s)
                self.rng = default_rng(s)

            def normal(self, loc, scale, size):
                draws.append(size)
                return self.rng.normal(loc, scale, size)

        monkeypatch.setattr(np.random, "default_rng", Counted)
        theta1, theta2 = initialize_params(X, y, 0.0, seed)
        assert made == [seed] and draws == [3]
        other1, other2 = initialize_params(X, y, 0.0, seed ^ 1)
        assert other1.tobytes() == theta1.tobytes() and other2.tobytes() != theta2.tobytes()
        config = SplitConfig(t_max=3, ridge_alpha=0.0, seed=seed)
        fitted = outcome_bits(select_split(X, y, config))
        assert fitted != outcome_bits(select_split(X, y, replace(config, seed=seed ^ 1)))
        assert made == [seed, seed ^ 1] * 2 and draws == [3] * 4


class TestMedianFallback:
    def test_median_of_four(self):
        X = np.array([[1.0], [2.0], [3.0], [4.0]])
        out = median_fallback(X, seed=0)
        assert out.fallback_feature == 0
        assert out.fallback_threshold == 2.5
        s1, s2 = partition(X, out.theta1, out.theta2, out.kind)
        assert sorted(X[s1, 0]) == [3.0, 4.0]
        assert sorted(X[s2, 0]) == [1.0, 2.0]
        assert out.used_fallback

    @pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan])
    def test_non_finite_value_rejected(self, value):
        X = np.array([[value, 1.0], [value, 2.0], [1.0, 3.0], [2.0, 0.0]])
        with pytest.raises(NonFiniteInput):
            median_fallback(X, seed=1)

    def test_single_feature_always_chosen(self):
        X = np.array([[0.0], [5.0], [9.0]])
        for seed in (0, 1, 17, 123456):
            assert median_fallback(X, seed=seed).fallback_feature == 0

    def test_constant_features_skipped(self):
        X = np.column_stack([np.ones(6), np.arange(6.0)])
        for seed in range(20):
            assert median_fallback(X, seed=seed).fallback_feature == 1

    @pytest.mark.parametrize("X", [np.array([[1.0, 2.0]]), np.arange(4.0)],
                             ids=["one-row", "one-dimensional"])
    def test_fewer_than_two_rows_rejected(self, X):
        with pytest.raises(TooFewSamples, match="fallback split needs at least 2 samples"):
            median_fallback(X, seed=0)

    def test_all_features_constant(self):
        X = np.ones((5, 3))
        with pytest.raises(AllFeaturesConstant):
            median_fallback(X, seed=0)

    def test_feature_choice_uniform_over_seeds(self):
        gen = np.random.default_rng(0)
        X = gen.normal(size=(30, 3))
        counts = np.zeros(3)
        n = 1000
        for seed in range(n):
            counts[median_fallback(X, seed=seed).fallback_feature] += 1
        p = 1.0 / 3.0
        sigma = np.sqrt(n * p * (1 - p))
        assert np.all(np.abs(counts - n * p) <= 3 * sigma)


class TestDescentProperties:
    def test_unit_step_matches_per_subset_fits_under_frozen_partition(self):
        # One damped step at mu=1 with the partition held fixed must equal
        # the per-subset solver outputs bit for bit, with the rows gathered
        # by fancy indexing outside the refit.
        for seed in range(30):
            gen = np.random.default_rng(seed)
            n = int(gen.integers(8, 61))
            d = int(gen.integers(1, 6))
            X, y = random_regression(seed, n, d, noise=0.5)
            t1 = gen.normal(size=d + 1)
            t2 = gen.normal(size=d + 1)
            s1, s2 = partition(X, t1, t2, HingeKind.MAX)
            if min(s1.size, s2.size) < 2:
                continue
            alpha = float(gen.choice([0.0, 0.01, 1.0]))
            n1, n2 = damped_update(X, y, s1, s2, t1, t2, mu=1.0, alpha=alpha)
            Xa = augment(X)
            assert np.array_equal(n1, ridge_solve(Xa[s1], y[s1], alpha))
            assert np.array_equal(n2, ridge_solve(Xa[s2], y[s2], alpha))

    def test_fixed_partition_iteration_contracts_geometrically(self):
        X, y = random_regression(31, 60, 3, noise=0.5)
        gen = np.random.default_rng(31)
        Xa = augment(X)
        for mu in (0.1, 0.5, 1.0):
            t1 = gen.normal(size=4)
            t2 = gen.normal(size=4)
            s1, s2 = partition(X, t1, t2, HingeKind.MAX)
            target1 = ridge_solve(Xa[s1], y[s1], 0.0)
            target2 = ridge_solve(Xa[s2], y[s2], 0.0)
            for _ in range(200):
                t1, t2 = damped_update(X, y, s1, s2, t1, t2, mu=mu, alpha=0.0)
            gap = np.linalg.norm(t1 - target1) + np.linalg.norm(t2 - target2)
            assert gap < 1e-8

    def test_auto_traces_strictly_decrease_on_random_data(self):
        for seed in range(50):
            gen = np.random.default_rng(seed)
            n = int(gen.integers(12, 80))
            d = int(gen.integers(1, 4))
            X, y = random_regression(seed, n, d, noise=0.5)
            for kind in HingeKind:
                out = find_optimal_split(X, y, kind,
                                         SplitConfig(step="auto", seed=seed))
                for k in range(out.iterations):
                    assert out.objective_trace[k + 1] < out.objective_trace[k]

    def test_hinge_collapse_matches_linear_prediction(self):
        # With theta1 == theta2 the hinge is exactly the single affine
        # model in whichever evaluation path is used.
        X, y = random_regression(14, 30, 3)
        Xa = augment(X)
        theta = ridge_solve(Xa, y, 0.1)
        r = y - Xa @ theta
        for kind in HingeKind:
            assert objective(X, y, theta, theta, kind) == 0.5 * float(r @ r)
            assert loop_from(X, y, theta, theta, kind).objective_trace[0] == 0.5 * float(r @ r)
        for row in X:
            lin = affine_row(row.tolist(), theta.tolist())
            assert max(lin, lin) == lin == min(lin, lin)
