import importlib
import math
import pkgutil
import re
import warnings
from contextlib import ExitStack, contextmanager
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest

import hingetree.boost
import hingetree.tree
from hingetree import (
    BoostConfig,
    BoostModel,
    DimensionMismatch,
    HingeKind,
    HrtModel,
    NonFiniteInput,
    SplitConfig,
    TreeConfig,
    build_tree,
    dumps_model,
    fit_boost,
    gamma_bound_check,
    gen_synthetic,
    loads_model,
    model_from_dict,
    model_to_dict,
    predict,
    predict_batch,
    predict_boost,
    predict_boost_batch,
    staged_losses,
)
from hingetree.boost import _stage_config
from hingetree.split import Split
from hingetree.tree import Internal, Leaf, train_stats
from conftest import hinge_regression, random_regression, walked_boost


def abs_tree_config(seed=0):
    return TreeConfig(d_max=1, n_min=5, tau_rmse=0.0,
                      split=SplitConfig(step=1.0, ridge_alpha=0.0, seed=seed))


def sinc_boost(m_stages=50, eta=0.1, seed=17, n=600, d_max=2):
    ds = gen_synthetic("sinc", n, 0.025, seed=seed)
    config = BoostConfig(m_stages=m_stages, eta=eta, tree=TreeConfig(
        d_max=d_max, n_min=5, tau_rmse=0.0,
        split=SplitConfig(step="auto", ridge_alpha=0.001, seed=seed)))
    return ds, fit_boost(ds.X, ds.y, config)


class TestFitBoost:
    def test_zero_stages_is_the_mean(self):
        X, y = random_regression(0, 40, 2)
        model = fit_boost(X, y, BoostConfig(m_stages=0))
        assert model.f0 == pytest.approx(np.mean(y))
        assert model.learners == ()
        centered = y - np.mean(y)
        assert model.loss_trace == (pytest.approx(0.5 * float(centered @ centered)),)
        assert predict_boost(model, X[0]) == model.f0

    def test_single_stage_fits_representable_target(self):
        gen = np.random.default_rng(1)
        x = gen.uniform(-1, 1, 120)
        X = x.reshape(-1, 1)
        y = np.abs(x)
        model = fit_boost(X, y, BoostConfig(m_stages=1, eta=1.0, tree=abs_tree_config()))
        assert model.loss_trace[-1] <= 1e-10
        assert model.gamma_trace[0] >= 1.0 - 1e-10

    def test_residuals_equal_recomputed_ordinary_residuals(self):
        ds, model = sinc_boost(m_stages=8)
        fx = np.full(ds.n, model.f0)
        for learner in model.learners:
            r_expected = ds.y - fx
            # The stage was trained on exactly these residuals: its own
            # training loss trace starts from the residual energy.
            contribution = predict_batch(learner, ds.X)
            fx = fx + model.eta * contribution
        final = ds.y - fx
        assert 0.5 * float(final @ final) == pytest.approx(model.loss_trace[-1], rel=1e-12)

    def test_stage_bound_recomputed_from_raw_residual_vectors(self):
        ds, model = sinc_boost(m_stages=50)
        fx = np.full(ds.n, model.f0)
        learners = iter(model.learners)
        for m, kept in enumerate(model.stage_retained, start=1):
            r = ds.y - fx
            r_sq = float(r @ r)
            assert kept  # with least-squares leaves no stage is discarded
            t = predict_batch(next(learners), ds.X)
            gamma = 1.0 - float((r - t) @ (r - t)) / r_sq
            assert gamma == pytest.approx(model.gamma_trace[m - 1], rel=1e-12)
            fx = fx + model.eta * t
            lhs = 0.5 * float((ds.y - fx) @ (ds.y - fx))
            rhs = (1.0 - model.eta * max(gamma, 0.0)) * (0.5 * r_sq)
            assert lhs <= rhs + 1e-9 * model.loss_trace[0]

    def test_loss_trace_non_increasing(self):
        _, model = sinc_boost(m_stages=40)
        diffs = np.diff(model.loss_trace)
        assert np.all(diffs <= 0)

    def test_early_stop_on_perfect_fit(self):
        gen = np.random.default_rng(2)
        x = gen.uniform(-1, 1, 100)
        X = x.reshape(-1, 1)
        y = np.abs(x)
        model = fit_boost(X, y, BoostConfig(m_stages=10, eta=1.0, tree=abs_tree_config()))
        assert len(model.learners) < 10
        assert model.loss_trace[-1] <= 1e-20
        assert len(model.loss_trace) == len(model.learners) + 1

    def test_constant_target_stops_immediately(self):
        X, _ = random_regression(3, 30, 2)
        y = np.full(30, 4.25)  # dyadic, so the mean is exact
        model = fit_boost(X, y, BoostConfig(m_stages=5))
        assert model.f0 == 4.25
        assert model.learners == ()
        assert model.loss_trace == (0.0,)

    def test_stage_one_loss_decreases_with_larger_eta(self):
        # Stage 1 sees identical residuals for every eta, so its post-update
        # loss is monotone in the step because of leaf-fit optimality.
        ds = gen_synthetic("sinc", 500, 0.025, seed=4)
        tree = TreeConfig(d_max=2, n_min=5, tau_rmse=0.0,
                          split=SplitConfig(step="auto", ridge_alpha=0.001, seed=4))
        small = fit_boost(ds.X, ds.y, BoostConfig(m_stages=1, eta=0.1, tree=tree))
        full = fit_boost(ds.X, ds.y, BoostConfig(m_stages=1, eta=1.0, tree=tree))
        assert full.loss_trace[1] <= small.loss_trace[1]

    def test_deterministic_serialization(self):
        _, a = sinc_boost(m_stages=6)
        _, b = sinc_boost(m_stages=6)
        assert dumps_model(a) == dumps_model(b)

    @pytest.mark.parametrize("target, value", [("X", np.nan), ("y", np.inf)])
    def test_non_finite_input_rejected(self, target, value):
        X, y = random_regression(3, 40, 2)
        if target == "X":
            X[17, 1] = value
        else:
            y[5] = value
        with pytest.raises(NonFiniteInput):
            fit_boost(X, y, BoostConfig(m_stages=3))

    def test_stage_worse_than_zero_is_discarded(self, monkeypatch):
        # Least-squares leaves never fit worse than zero, so flip stage 2's
        # predictions to drive fit_boost through its discard branch.
        real = hingetree.boost.predict_batch
        calls = []

        def flip_second_stage(learner, X):
            calls.append(learner)
            values = real(learner, X)
            return -values if len(calls) == 2 else values

        monkeypatch.setattr(hingetree.boost, "predict_batch", flip_second_stage)
        ds, model = sinc_boost(m_stages=4)
        assert len(calls) == 4
        assert model.gamma_trace[1] == 0.0
        assert model.stage_retained == (True, False, True, True)
        assert model.loss_trace[2] == model.loss_trace[1]
        assert model.learners == (calls[0], calls[2], calls[3])
        assert all(check.ok for check in gamma_bound_check(model))
        np.testing.assert_array_equal(staged_losses(model, ds.X, ds.y), model.loss_trace)
        loaded = model_from_dict(model_to_dict(model))
        assert loaded.stage_retained == model.stage_retained
        assert dumps_model(loaded) == dumps_model(model)
        assert predict_boost_batch(loaded, ds.X).tobytes() == \
            predict_boost_batch(model, ds.X).tobytes()


class TestPredictBoost:
    def test_one_learner_unit_eta(self):
        gen = np.random.default_rng(5)
        x = gen.uniform(-1, 1, 80)
        X = x.reshape(-1, 1)
        y = np.abs(x)
        model = fit_boost(X, y, BoostConfig(m_stages=1, eta=1.0, tree=abs_tree_config()))
        for xi in ((-0.3,), (0.6,)):
            expected = model.f0 + predict(model.learners[0], xi)
            assert predict_boost(model, xi) == expected

    def test_matches_compensated_sum_oracle(self):
        ds, model = sinc_boost(m_stages=10)
        gen = np.random.default_rng(11)
        points = gen.uniform(-1.5, 1.5, size=(500, 1))
        per_stage = [predict_batch(learner, points) for learner in model.learners]
        for i, x in enumerate(points):
            oracle = math.fsum([model.f0] + [model.eta * stage[i] for stage in per_stage])
            assert predict_boost(model, x) == pytest.approx(oracle, rel=1e-9)

    def test_batch_matches_scalar(self):
        ds, model = sinc_boost(m_stages=5)
        pts = np.random.default_rng(3).uniform(-1.5, 1.5, size=(64, 1))
        batch = predict_boost_batch(model, pts)
        assert np.array_equal(batch, [predict_boost(model, row) for row in pts])

    @pytest.mark.parametrize("name", ["f2", "hinge16"])
    def test_batch_matches_scalar_multi_feature(self, name):
        if name == "f2":
            ds = gen_synthetic("f2", 400, 0.05, seed=6)
            X, y = ds.X, ds.y
        else:
            X, y = hinge_regression(6, 300, 16)
        model = fit_boost(X, y, BoostConfig(m_stages=5, tree=TreeConfig(
            d_max=2, n_min=5, tau_rmse=0.0, split=SplitConfig(step="auto", seed=6))))
        assert len(model.learners) > 1
        pts = np.random.default_rng(7).uniform(-1.0, 1.0, size=(64, X.shape[1]))
        batch = predict_boost_batch(model, pts)
        assert np.array_equal(batch, [predict_boost(model, row) for row in pts])
        chunks = [predict_boost_batch(model, pts[i:i + 7]) for i in range(0, 64, 7)]
        assert np.concatenate(chunks).tobytes() == batch.tobytes()

    def test_dimension_mismatch(self):
        _, model = sinc_boost(m_stages=2)
        with pytest.raises(DimensionMismatch):
            predict_boost(model, [1.0, 2.0])
        with pytest.raises(DimensionMismatch):
            predict_boost_batch(model, np.zeros((3, 2)))

    def test_only_a_sequence_or_a_one_row_matrix_is_a_sample(self):
        model = ensemble([split(HingeKind.MAX, [1.0, 0.0, 0.0], [0.0, 1.0, 0.0],
                                leaf(0.0, 0.0, 1.0), leaf(0.0, 0.0, -1.0))], d=2)
        expected = predict_boost(model, [1.0, 2.0])
        assert predict_boost(model, np.array([[1.0, 2.0]])) == expected
        # Each holds two values, but neither is one sample of two features.
        for x in ([[1.0], [2.0]], np.array([1.0, 2.0]).reshape(1, 1, 2)):
            with pytest.raises(DimensionMismatch):
                predict_boost(model, x)


def leaf(*theta):
    return Leaf(theta=np.array(theta), n_train=1)


def split(kind, theta1, theta2, left, right):
    return Internal(split=Split(kind=kind, theta1=theta1, theta2=theta2), left=left, right=right)


def ensemble(roots, d, f0=0.5, eta=0.5):
    """An ensemble of hand-built trees, one retained stage per root."""
    learners = [HrtModel(root=root, d=d, config=_stage_config(BoostConfig().tree, m),
                         stats=train_stats(root)) for m, root in enumerate(roots, start=1)]
    n = len(learners)
    return BoostModel(f0=f0, eta=eta, learners=learners, gamma_trace=[0.0] * n,
                      loss_trace=[1.0] * (n + 1), stage_retained=[True] * n, d=d,
                      config=BoostConfig())


def assert_walked(model, rows):
    """``predict_boost`` on each row has the bits of the learners' scalar walks and of the batch."""
    rows = np.asarray(rows, dtype=float)
    one = np.array([predict_boost(model, x) for x in rows])
    assert one.tobytes() == np.array([walked_boost(model, x) for x in rows]).tobytes()
    assert one.tobytes() == predict_boost_batch(model, rows).tobytes()
    return one


class TestPredictBoostOnePass:
    """The single-row pass over the ensemble's table, on hand-built ensembles."""

    @pytest.mark.parametrize("kind", list(HingeKind))
    def test_row_on_the_hyperplane_takes_the_first_branch(self, kind):
        # The sides x0 and x1 + 0.25 tie exactly on both rows.
        model = ensemble([split(kind, [1.0, 0.0, 0.0], [0.0, 1.0, 0.25],
                                leaf(0.0, 0.0, 1.0), leaf(0.0, 0.0, -1.0))], d=2)
        one = assert_walked(model, [[0.75, 0.5], [-2.0, -2.25]])
        assert one.tolist() == [1.0, 1.0]

    def test_off_path_overflow_is_silent_and_unused(self):
        # The row goes first at the root; the second subtree overflows to inf
        # (1e300 * 1e10) and to NaN (inf - inf) on it, in a node and its leaves.
        huge = split(HingeKind.MAX, [1e300, -1e300, 0.0], [1e300, 0.0, 0.0],
                     leaf(1e300, 0.0, 0.0), leaf(0.0, -1e300, 0.0))
        model = ensemble([split(HingeKind.MAX, [1.0, 0.0, 0.0], [0.0, 0.0, 0.0],
                                leaf(0.0, 0.0, 2.0), huge)], d=2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            one = assert_walked(model, [[1e10, 1e10]])
        assert one.tolist() == [1.5]

    @pytest.mark.parametrize("theta, value", [((-1e300, -1e300, 0.0), -math.inf),
                                              ((1e300, -1e300, 0.0), math.nan)],
                             ids=["-inf", "nan"])
    def test_on_path_overflow_has_the_same_bits_everywhere(self, theta, value):
        # The root's first side overflows to inf on the row (1e300 * 1e10),
        # and the leaf it picks to -inf or to NaN (inf - inf).
        model = ensemble([split(HingeKind.MAX, [1e300, 0.0, 0.0], [0.0, 0.0, 0.0],
                                leaf(*theta), leaf(0.0, 0.0, 1.0))], d=2)
        row = np.array([[1e10, 1e10]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            one = assert_walked(model, row)
            tree = predict_batch(model.learners[0], row)
        assert tree.tobytes() == np.array([predict(model.learners[0], row[0])]).tobytes()
        assert np.array_equal(tree, [value], equal_nan=True)
        assert np.array_equal(one, [value], equal_nan=True)

    def test_learners_of_unequal_depth(self):
        gen = np.random.default_rng(12)

        def chain(depth):
            # A first-branch chain: every level's second child is a leaf.
            if depth == 0:
                return leaf(*gen.normal(size=3))
            kind = HingeKind.MAX if gen.integers(2) else HingeKind.MIN
            return split(kind, gen.normal(size=3), gen.normal(size=3),
                         chain(depth - 1), leaf(*gen.normal(size=3)))

        roots = [chain(3), chain(0), chain(1), chain(0), chain(2)]
        model = ensemble(roots, d=2, eta=0.3)
        assert model._table.deepest == 3
        assert_walked(model, gen.normal(size=(200, 2)))


class TestPredictBoostKernelCalls:
    """One ensemble row costs one call of the one-row kernel, whatever the ensemble's size."""

    @pytest.mark.parametrize("stages", [0, 1, 20])
    def test_one_affine_row_call_per_row(self, stages):
        ds, model = sinc_boost(m_stages=stages)
        assert len(model.learners) == stages
        rows = ds.X[:5]
        with mock.patch.object(hingetree.boost, "affine_row",
                               wraps=hingetree.boost.affine_row) as kernel:
            one = [predict_boost(model, x) for x in rows]
        assert kernel.call_count == len(rows)
        assert np.array(one).tobytes() == predict_boost_batch(model, rows).tobytes()

    @pytest.mark.parametrize("stages", [0, 3, 20])
    def test_deepest_is_the_largest_learner_depth(self, stages):
        _, model = sinc_boost(m_stages=stages, d_max=3)
        for m in (model, loads_model(dumps_model(model))):
            table = m._table
            assert type(table.deepest) is int
            assert table.deepest == max((t._table.deepest for t in m.learners), default=0)
            assert table.deepest == max((t.stats.depth for t in m.learners), default=0)


class TestLeafFits:
    def test_a_learner_fits_one_model_per_leaf(self):
        # The base learners grow with tau_rmse = 0, which reads no internal node's model.
        ds = gen_synthetic("f1", 300, 0.1, seed=3)
        built = []
        real = hingetree.boost.build_tree

        def build(*args, **kwargs):
            built.append(real(*args, **kwargs))
            return built[-1]

        with mock.patch.object(hingetree.boost, "build_tree", build), \
                mock.patch.object(hingetree.tree, "fit_or_mean",
                                  wraps=hingetree.tree.fit_or_mean) as fit:
            fit_boost(ds.X, ds.y, BoostConfig(m_stages=5))
        assert len(built) == 5 and all(m.stats.n_splits for m in built)
        assert fit.call_count == sum(m.stats.n_leaves for m in built)


class TestStagedLosses:
    def test_zero_stage_model(self):
        X, y = random_regression(7, 25, 2)
        model = fit_boost(X, y, BoostConfig(m_stages=0))
        losses = staged_losses(model, X, y)
        centered = y - y.mean()
        np.testing.assert_allclose(losses, [0.5 * float(centered @ centered)])

    def test_constant_target_all_zero(self):
        X, _ = random_regression(8, 20, 2)
        y = np.full(20, -1.5)
        model = fit_boost(X, y, BoostConfig(m_stages=3))
        np.testing.assert_array_equal(staged_losses(model, X, y), [0.0])

    def test_matches_recorded_trace_on_training_data(self):
        ds, model = sinc_boost(m_stages=20)
        losses = staged_losses(model, ds.X, ds.y)
        np.testing.assert_array_equal(losses, model.loss_trace)

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_target_rejected(self, value):
        ds, model = sinc_boost(m_stages=2)
        y = ds.y.copy()
        y[3] = value
        with pytest.raises(NonFiniteInput):
            staged_losses(model, ds.X, y)

    def test_row_count_mismatch_rejected(self):
        ds, model = sinc_boost(m_stages=2)
        with pytest.raises(DimensionMismatch, match="X and y row counts differ"):
            staged_losses(model, ds.X, ds.y[:-1])

    def test_discarded_stage_repeats_the_previous_loss(self):
        ds, model = sinc_boost(m_stages=3)
        # Stages are discarded only through rounding; mark one by hand.
        retained, gammas, losses = model.stage_retained, model.gamma_trace, model.loss_trace
        # The learners move to stages 1, 3 and 4, each with its stage's config.
        learners = [replace(t, config=_stage_config(model.config.tree, m))
                    for m, t in zip((1, 3, 4), model.learners)]
        model = replace(model, learners=learners,
                        stage_retained=retained[:1] + (False,) + retained[1:],
                        gamma_trace=gammas[:1] + (0.0,) + gammas[1:],
                        loss_trace=losses[:2] + losses[1:])
        losses = staged_losses(model, ds.X, ds.y)
        np.testing.assert_array_equal(losses, model.loss_trace)
        assert losses[2] == losses[1]


class TestStageCounts:
    """An ensemble whose traces or learners contradict its stages is rejected when it is built."""

    @pytest.mark.parametrize("edit, message", [
        (lambda b: {"loss_trace": b.loss_trace[:2]},
         "loss_trace: expected 4 entries for 3 stages, got 2"),
        (lambda b: {"stage_retained": (True,) * 4},
         "loss_trace: expected 5 entries for 4 stages, got 4"),
        (lambda b: {"stage_retained": (True, False, True)},
         "stage_retained: 2 retained stages for 3 learners"),
        (lambda b: {"learners": b.learners[:2]},
         "stage_retained: 3 retained stages for 2 learners"),
        (lambda b: {"gamma_trace": b.gamma_trace[:2]},
         "gamma_trace: expected 3 entries or none, got 2"),
        # The counts are checked first: these learners are also of other stages.
        (lambda b: {"learners": b.learners[1:]},
         "stage_retained: 3 retained stages for 2 learners"),
        (lambda b: {"learners": b.learners[:1] * 2 + b.learners[2:]},
         "learners[1]: config is not stage 2's config.tree"),
    ], ids=["short-loss", "more-stages", "unretained", "short-learners", "short-gamma",
            "learners-of-later-stages", "learner-of-another-stage"])
    def test_inconsistent_counts_raise(self, edit, message):
        _, model = sinc_boost(m_stages=3)
        assert model.stage_retained == (True,) * 3
        with pytest.raises(ValueError, match="^" + re.escape(message) + "$"):
            replace(model, **edit(model))

    def test_learner_fitted_under_another_config_raises(self):
        # A saved file keeps only config.tree, so this model would load with d_max 3 learners.
        ds = gen_synthetic("f1", 200, 0.1, 1)
        model = fit_boost(ds.X, ds.y, BoostConfig(m_stages=3, tree=TreeConfig(d_max=2)))
        assert [t.config.d_max for t in model.learners] == [2, 2, 2]
        message = "learners[0]: config is not stage 1's config.tree"
        with pytest.raises(ValueError, match="^" + re.escape(message) + "$"):
            replace(model, config=BoostConfig(m_stages=3))



class TestGammaBoundCheck:
    def test_perfect_single_stage(self):
        gen = np.random.default_rng(9)
        x = gen.uniform(-1, 1, 90)
        X = x.reshape(-1, 1)
        y = np.abs(x)
        model = fit_boost(X, y, BoostConfig(m_stages=1, eta=1.0, tree=abs_tree_config()))
        checks = gamma_bound_check(model)
        assert len(checks) == 1
        assert checks[0].ok and checks[0].lhs <= checks[0].rhs

    def test_zero_gamma_degenerates_to_previous_loss(self):
        ds, model = sinc_boost(m_stages=5)
        gammas = model.gamma_trace
        model = replace(model, gamma_trace=gammas[:2] + (0.0,) + gammas[3:])
        checks = gamma_bound_check(model)
        slack = 1e-9 * model.loss_trace[0]
        assert checks[2].rhs == pytest.approx(model.loss_trace[2] + slack)

    def test_full_run_all_ok(self):
        _, model = sinc_boost(m_stages=50)
        assert all(c.ok for c in gamma_bound_check(model))

    def test_cumulative_product_bound(self):
        _, model = sinc_boost(m_stages=50)
        bound = model.loss_trace[0]
        for gamma in model.gamma_trace:
            bound *= 1.0 - model.eta * max(gamma, 0.0)
        assert model.loss_trace[-1] <= bound + 1e-9 * model.loss_trace[0]

    def test_requires_recorded_gammas(self):
        # Earlier format-1 files saved with record_gamma=False hold no gammas.
        X, y = random_regression(10, 30, 2)
        doc = model_to_dict(fit_boost(X, y, BoostConfig(m_stages=2)))
        doc["config"]["record_gamma"] = False
        doc["gamma_trace"] = []
        model = model_from_dict(doc)
        assert model.gamma_trace == () and len(model.stage_retained) == 2
        with pytest.raises(ValueError):
            gamma_bound_check(model)


@contextmanager
def counted(name):
    """A mock of the tree layer's ``name``, installed in every ``hingetree`` module that holds it.

    A module that imports ``name`` by name calls its own binding, so
    patching ``hingetree.tree`` alone would miss its calls.
    """
    original = getattr(hingetree.tree, name)
    modules = [importlib.import_module(f"hingetree.{info.name}")
               for info in pkgutil.iter_modules(hingetree.__path__)]
    holders = [module for module in modules if getattr(module, name, None) is original]
    assert {"hingetree.tree", "hingetree.boost"} <= {module.__name__ for module in holders}
    wrapper = mock.Mock(wraps=original)
    with ExitStack() as stack:
        for module in holders:
            stack.enter_context(mock.patch.object(module, name, wrapper))
        yield wrapper


class TestRouterTables:
    """Every model is flattened once, when it is built or loaded, and never to predict.

    A single ensemble row does not go through the batch router either.
    """

    def test_one_flatten_per_tree_model_and_none_per_prediction(self):
        ds = gen_synthetic("f2", 200, 0.05, seed=3)
        X, y = ds.X, ds.y
        with counted("_flatten") as flatten:
            tree_model = build_tree(X, y, TreeConfig(d_max=3))
            assert flatten.call_count == 1
            model = fit_boost(X, y, BoostConfig(m_stages=5, eta=0.3))
            # Each stage builds one learner, a discarded one included, and the
            # ensemble is flattened once more, from its learners' roots.
            assert flatten.call_count == 1 + len(model.stage_retained) + 1 == 7
            assert flatten.call_args.args == ([t.root for t in model.learners], model.d)
            flatten.reset_mock()
            loads_model(dumps_model(tree_model))
            assert flatten.call_count == 1
            loaded = loads_model(dumps_model(model))
            assert flatten.call_count == 1 + len(model.learners) + 1
            flatten.reset_mock()
            rebuilt = replace(model)  # an ensemble built from its learners flattens them again
            assert flatten.call_count == 1
            flatten.reset_mock()
            for m in (model, loaded, rebuilt):
                batch = predict_boost_batch(m, X)
                with counted("_route") as route:
                    assert predict_boost(m, X[0]) == batch[0]
                assert route.call_count == 0
                staged_losses(m, X, y)
            predict_batch(tree_model, X)
            predict(tree_model, X[0])
            assert flatten.call_count == 0
        assert predict_boost_batch(rebuilt, X).tobytes() == batch.tobytes()

    @pytest.mark.parametrize("retained", [[], [False, False]], ids=["no-stages", "all-discarded"])
    def test_ensemble_without_learners_predicts_f0(self, retained):
        model = BoostModel(f0=1.25, eta=0.1, learners=[], gamma_trace=[0.0] * len(retained),
                           loss_trace=[1.0] * (len(retained) + 1), stage_retained=retained,
                           d=2, config=BoostConfig())
        X = np.random.default_rng(0).normal(size=(5, 2))
        assert predict_boost(model, X[0]) == 1.25
        assert predict_boost_batch(model, X).tolist() == [1.25] * 5
