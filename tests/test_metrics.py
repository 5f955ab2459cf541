import math
from dataclasses import replace

import numpy as np
import pytest

from hingetree import (
    BoostConfig,
    BoostModel,
    EmptyInput,
    HingeKind,
    HrtModel,
    LengthMismatch,
    NonFiniteInput,
    SplitConfig,
    Split,
    TrainStats,
    TreeConfig,
    boost_inference_flops,
    build_tree,
    complexity_report,
    evaluate,
    fit_boost,
    gen_synthetic,
    hrt_inference_flops,
    split_train_test,
)
from hingetree.boost import _stage_config
from hingetree.tree import Internal, Leaf


def leaf_model(d):
    stats = TrainStats(n_leaves=1, depth=0, n_splits=0, n_fallbacks=0,
                       total_split_iterations=0, total_variant_iterations=0)
    return HrtModel(root=Leaf(theta=np.zeros(d + 1), n_train=1), d=d,
                    config=TreeConfig(), stats=stats)


def balanced_model(depth, d):
    def node(level):
        if level == depth:
            return Leaf(theta=np.zeros(d + 1), n_train=1)
        out = Split(kind=HingeKind.MAX, theta1=np.zeros(d + 1), theta2=np.ones(d + 1))
        return Internal(split=out, left=node(level + 1), right=node(level + 1))

    n_leaves = 2 ** depth
    stats = TrainStats(n_leaves=n_leaves, depth=depth, n_splits=n_leaves - 1,
                       n_fallbacks=0, total_split_iterations=0,
                       total_variant_iterations=0)
    return HrtModel(root=node(0), d=d, config=TreeConfig(d_max=max(depth, 1)),
                    stats=stats)


def boost_of(learners, d, eta=0.1):
    stages = len(learners)
    # Each learner takes its stage's config, as fit_boost gives it.
    learners = [replace(t, config=_stage_config(BoostConfig().tree, m))
                for m, t in enumerate(learners, start=1)]
    return BoostModel(f0=0.5, eta=eta, learners=learners,
                      gamma_trace=[0.1] * stages, loss_trace=[1.0] * (stages + 1),
                      stage_retained=[True] * stages, d=d, config=BoostConfig())


class TestEvaluate:
    def test_perfect_predictions(self):
        y = np.array([1.0, -2.0, 0.5])
        report = evaluate(y, y)
        assert report.rmse == 0.0 and report.mae == 0.0 and report.r2 == 1.0
        assert report.n == 3 and report.r2_defined

    def test_mean_prediction_scores_zero_r2(self):
        y = np.array([1.0, 2.0, 3.0, 6.0])
        report = evaluate(np.full(4, y.mean()), y)
        assert report.r2 == pytest.approx(0.0, abs=1e-15)

    def test_hand_computed_example(self):
        report = evaluate([1.0, 2.0, 4.0], [1.0, 3.0, 3.0])
        assert report.rmse == pytest.approx(math.sqrt(2.0 / 3.0))
        assert report.mae == pytest.approx(2.0 / 3.0)
        assert report.r2 == pytest.approx(0.25)

    def test_permutation_invariant(self):
        gen = np.random.default_rng(1)
        p = gen.normal(size=50)
        y = gen.normal(size=50)
        order = gen.permutation(50)
        a = evaluate(p, y)
        b = evaluate(p[order], y[order])
        assert a.rmse == pytest.approx(b.rmse, rel=1e-12)
        assert a.mae == pytest.approx(b.mae, rel=1e-12)
        assert a.r2 == pytest.approx(b.r2, rel=1e-12)

    def test_constant_targets_flagged(self):
        report = evaluate([1.0, 2.0], [3.0, 3.0])
        assert not report.r2_defined
        assert math.isnan(report.r2)
        assert report.rmse > 0

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            evaluate([1.0], [1.0, 2.0])

    def test_empty_input(self):
        with pytest.raises(EmptyInput):
            evaluate([], [])

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("side", ["predictions", "targets"])
    def test_non_finite_input(self, side, value):
        bad, good = [1.0, value, 2.0], [1.0, 0.5, 2.0]
        args = (bad, good) if side == "predictions" else (good, bad)
        with pytest.raises(NonFiniteInput):
            evaluate(*args)


class TestTreeFlops:
    def test_single_leaf_d2(self):
        report = hrt_inference_flops(leaf_model(2))
        assert report.inference_flops_per_sample == 5.0
        assert report.total_parameters == 3

    def test_depth_one_d2(self):
        report = hrt_inference_flops(balanced_model(1, 2))
        # internal: 2 * (2*3 - 1) + 1 = 11, leaf: 5, both paths 16
        assert report.inference_flops_per_sample == 16.0
        assert report.total_parameters == 3 * (2 * 1 + 2)

    def test_balanced_depth_two_d1(self):
        report = hrt_inference_flops(balanced_model(2, 1))
        # internal: 2 * 3 + 1 = 7 each, leaf: 3, each path 7 + 7 + 3 = 17
        assert report.inference_flops_per_sample == 17.0

    def test_diff_mode_counts_one_dot_product_per_split(self):
        report = hrt_inference_flops(balanced_model(1, 2), mode="diff")
        # internal: (2*3 - 1) + 1 = 6, leaf: 5 -> 11
        assert report.inference_flops_per_sample == 11.0

    def test_single_leaf_formula_across_dimensions(self):
        for d in range(1, 65):
            report = hrt_inference_flops(leaf_model(d))
            assert report.inference_flops_per_sample == 2 * (d + 1) - 1

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            hrt_inference_flops(leaf_model(2), mode="three")


class TestBoostFlops:
    def test_zero_stage_costs_one_add(self):
        report = boost_inference_flops(boost_of([], 2))
        assert report.inference_flops_per_sample == 1.0
        assert report.total_parameters == 0

    def test_single_leaf_learner(self):
        report = boost_inference_flops(boost_of([leaf_model(2)], 2))
        assert report.inference_flops_per_sample == 8.0  # 5 + 2 + 1

    def test_linearity_over_learners(self):
        for m in (1, 3, 7):
            learners = [balanced_model(2, 3) for _ in range(m)]
            single = hrt_inference_flops(learners[0]).inference_flops_per_sample
            report = boost_inference_flops(boost_of(learners, 3))
            assert report.inference_flops_per_sample == m * single + 2 * m + 1
            assert report.total_parameters == m * hrt_inference_flops(learners[0]).total_parameters


class TestComplexityReport:
    def test_single_leaf(self):
        report = complexity_report(leaf_model(3))
        assert report == {"kind": "hrt", "depth": 0, "leaves": 1}

    def test_boost_of_five_four_leaf_trees(self):
        learners = [balanced_model(2, 2) for _ in range(5)]
        report = complexity_report(boost_of(learners, 2))
        assert report["total_leaves"] == 20
        assert report["stages"] == 5
        assert report["max_depth"] == 2

    def test_unsupported_type(self):
        with pytest.raises(TypeError):
            complexity_report(object())

    def test_trained_sinc_leaf_count_in_published_band(self):
        # Benchmark settings for the 1-D oscillatory task land between 15
        # and 40 leaves (reported averages sit in the mid-20s).
        ds = gen_synthetic("sinc", 1000, 0.025, seed=123)
        train, _ = split_train_test(ds, 0.7, seed=7)
        model = build_tree(train.X, train.y, TreeConfig(
            d_max=6, n_min=5, tau_rmse=0.03,
            split=SplitConfig(step=0.01, ridge_alpha=0.001, seed=11)))
        assert 15 <= model.stats.n_leaves <= 40


class TestTrainedModelFlops:
    def test_structure_consistency(self):
        ds = gen_synthetic("sinc", 400, 0.025, seed=5)
        model = build_tree(ds.X, ds.y, TreeConfig(d_max=4))
        report = hrt_inference_flops(model)
        p = model.d + 1
        assert report.total_parameters == p * (2 * model.stats.n_splits
                                               + model.stats.n_leaves)
        leaf_only = 2 * p - 1
        per_split = 2 * (2 * p - 1) + 1
        assert leaf_only <= report.inference_flops_per_sample
        assert report.inference_flops_per_sample <= leaf_only + model.stats.depth * per_split

    def test_boost_flops_on_trained_ensemble(self):
        ds = gen_synthetic("sinc", 300, 0.025, seed=6)
        model = fit_boost(ds.X, ds.y, BoostConfig(m_stages=4))
        report = boost_inference_flops(model)
        manual = sum(hrt_inference_flops(t).inference_flops_per_sample
                     for t in model.learners) + 2 * len(model.learners) + 1
        assert report.inference_flops_per_sample == manual
