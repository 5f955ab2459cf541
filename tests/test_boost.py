import math

import numpy as np
import pytest

import hingetree.boost
from hingetree import (
    BoostConfig,
    DimensionMismatch,
    NonFiniteInput,
    SplitConfig,
    TreeConfig,
    dumps_model,
    fit_boost,
    gamma_bound_check,
    gen_synthetic,
    model_from_dict,
    model_to_dict,
    predict,
    predict_batch,
    predict_boost,
    predict_boost_batch,
    staged_losses,
)
from conftest import hinge_regression, random_regression


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
        assert model.learners == []
        centered = y - np.mean(y)
        assert model.loss_trace == [pytest.approx(0.5 * float(centered @ centered))]
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
        assert model.learners == []
        assert model.loss_trace == [0.0]

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
        assert model.stage_retained == [True, False, True, True]
        assert model.loss_trace[2] == model.loss_trace[1]
        assert model.learners == [calls[0], calls[2], calls[3]]
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

    def test_discarded_stage_repeats_the_previous_loss(self):
        ds, model = sinc_boost(m_stages=3)
        # Stages are discarded only through rounding; mark one by hand.
        model.stage_retained.insert(1, False)
        model.gamma_trace.insert(1, 0.0)
        model.loss_trace.insert(2, model.loss_trace[1])
        losses = staged_losses(model, ds.X, ds.y)
        np.testing.assert_array_equal(losses, model.loss_trace)
        assert losses[2] == losses[1]


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
        model.gamma_trace[2] = 0.0
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
        assert model.gamma_trace == [] and len(model.stage_retained) == 2
        with pytest.raises(ValueError):
            gamma_bound_check(model)
