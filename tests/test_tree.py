from dataclasses import FrozenInstanceError, replace
from operator import setitem
from unittest import mock

import numpy as np
import pytest

import hingetree.linear
import hingetree.split
import hingetree.tree
from hingetree import (
    Dataset,
    DimensionMismatch,
    EmptyDataset,
    HingeKind,
    NonFiniteInput,
    BoostConfig,
    BoostModel,
    HrtModel,
    SplitConfig,
    Split,
    TrainStats,
    TreeConfig,
    augment,
    build_tree,
    dumps_model,
    find_optimal_split,
    fit_boost,
    gamma_bound_check,
    gen_synthetic,
    load_csv,
    loads_model,
    median_fallback,
    model_to_dict,
    predict,
    predict_batch,
    predict_boost,
    predict_boost_batch,
    ridge_solve,
    select_split,
    write_csv,
)
from hingetree.linear import affine, affine_row
from hingetree.split import SplitOutcome, _first_pair
from hingetree.tree import Internal, Leaf, _preorder, derive_seed, train_stats
from conftest import hinge_regression, random_regression, relabel_leaves


def abs_config(**overrides):
    base = dict(d_max=1, n_min=5, tau_rmse=0.0,
                split=SplitConfig(step=1.0, ridge_alpha=0.0, seed=3))
    base.update(overrides)
    return TreeConfig(**base)


def abs_model(n=100, seed=0):
    gen = np.random.default_rng(seed)
    x = gen.uniform(-1.0, 1.0, n)
    X = x.reshape(-1, 1)
    return X, np.abs(x), build_tree(X, np.abs(x), abs_config())


def manual_model(depth, d, seed=0):
    """Hand-built random tree of the given depth (all leaves at that depth)."""
    gen = np.random.default_rng(seed)

    def node(level):
        if level == depth:
            return Leaf(theta=gen.normal(size=d + 1), n_train=1)
        out = Split(
            theta1=gen.normal(size=d + 1),
            theta2=gen.normal(size=d + 1),
            kind=HingeKind.MAX if gen.integers(2) else HingeKind.MIN,
        )
        return Internal(split=out, left=node(level + 1), right=node(level + 1))

    root = node(0)
    n_leaves = 2 ** depth
    stats = TrainStats(n_leaves=n_leaves, depth=depth, n_splits=n_leaves - 1,
                       n_fallbacks=0, total_split_iterations=0,
                       total_variant_iterations=0)
    return HrtModel(root=root, d=d, config=TreeConfig(d_max=max(depth, 1)), stats=stats)


class TestBuildTree:
    def test_depth_zero_is_global_fit(self):
        X, y = random_regression(5, 60, 3)
        model = build_tree(X, y, TreeConfig(d_max=0, split=SplitConfig(ridge_alpha=0.01)))
        assert isinstance(model.root, Leaf)
        theta = ridge_solve(augment(X), y, 0.01)
        np.testing.assert_allclose(model.root.theta, theta, atol=1e-12)
        for row in X[:10]:
            assert predict(model, row) == affine_row(row.tolist(), model.root.theta.tolist())

    def test_small_node_is_leaf(self):
        X, y = random_regression(6, 7, 2)
        model = build_tree(X, y, TreeConfig(d_max=4, n_min=8))
        assert isinstance(model.root, Leaf)
        assert model.stats.n_leaves == 1 and model.stats.depth == 0

    def test_abs_needs_one_max_split(self):
        X, y, model = abs_model()
        assert isinstance(model.root, Internal)
        assert model.root.split.kind is HingeKind.MAX
        assert isinstance(model.root.left, Leaf) and isinstance(model.root.right, Leaf)
        slopes = sorted([model.root.left.theta[0], model.root.right.theta[0]])
        assert abs(slopes[0] + 1.0) <= 1e-6 and abs(slopes[1] - 1.0) <= 1e-6
        residual = predict_batch(model, X) - y
        assert np.sqrt(np.mean(residual ** 2)) <= 1e-8

    def test_empty_dataset_rejected(self):
        with pytest.raises(EmptyDataset):
            build_tree(np.empty((0, 2)), np.empty(0))

    def test_mismatched_rows_rejected(self):
        with pytest.raises(DimensionMismatch):
            build_tree(np.zeros((4, 2)), np.zeros(3))

    @pytest.mark.parametrize("target, value", [("X", np.nan), ("y", np.inf)])
    def test_non_finite_input_rejected(self, target, value):
        X, y = random_regression(3, 40, 2)
        if target == "X":
            X[17, 1] = value
        else:
            y[5] = value
        with pytest.raises(NonFiniteInput):
            build_tree(X, y)

    @pytest.mark.parametrize("step", [0.01, "auto"])
    def test_csv_and_column_major_inputs_train_the_in_memory_bits(self, tmp_path, step):
        X, y = hinge_regression(1, 400, 16, noise=0.1)
        path = tmp_path / "train.csv"
        write_csv(Dataset(X=X, y=y, feature_names=[f"x{j}" for j in range(16)], provenance={}),
                  path)
        read = load_csv(path, "y")
        layouts = [(X, y), (read.X, read.y), (np.asfortranarray(X), y)]
        config = TreeConfig(split=SplitConfig(step=step, seed=1))
        texts = [dumps_model(build_tree(Xl, yl, config)) for Xl, yl in layouts]
        assert texts[1] == texts[0] and texts[2] == texts[0]
        # The root split's objective values come from matvecs on the whole
        # design, whose bits depend on its memory layout.
        traces = [find_optimal_split(Xl, yl, HingeKind.MAX, config.split).objective_trace
                  for Xl, yl in layouts]
        assert traces[1] == traces[0] and traces[2] == traces[0]

    def test_deterministic_given_seed(self):
        ds = gen_synthetic("sinc", 400, 0.025, seed=9)
        cfg = TreeConfig(d_max=4, split=SplitConfig(step="auto", seed=11))
        a = build_tree(ds.X, ds.y, cfg)
        b = build_tree(ds.X, ds.y, cfg)
        pts = np.random.default_rng(0).uniform(-1.5, 1.5, size=(200, 1))
        assert np.array_equal(predict_batch(a, pts), predict_batch(b, pts))

    def test_rmse_threshold_stops_growth(self):
        X, y = random_regression(12, 200, 2, noise=0.01)
        model = build_tree(X, y, TreeConfig(d_max=6, tau_rmse=0.5))
        # Targets are near-linear, so the root fit is already below tau.
        assert isinstance(model.root, Leaf)

    def test_fallback_accounting(self):
        ds = gen_synthetic("sinc", 700, 0.025, seed=2)
        model = build_tree(ds.X, ds.y, TreeConfig(
            d_max=6, n_min=5, tau_rmse=0.03,
            split=SplitConfig(step=1.0, ridge_alpha=0.001, seed=5)))

        def count_fallbacks(node):
            if isinstance(node, Leaf):
                return 0
            own = 1 if node.split.used_fallback else 0
            return own + count_fallbacks(node.left) + count_fallbacks(node.right)

        assert model.stats.n_fallbacks == count_fallbacks(model.root)
        assert model.stats.n_fallbacks <= model.stats.n_splits
        assert model.stats.n_leaves == model.stats.n_splits + 1

    def test_constant_features_make_leaf(self):
        X = np.ones((30, 2))
        y = np.random.default_rng(0).normal(size=30)
        model = build_tree(X, y, TreeConfig(d_max=3, n_min=5, tau_rmse=0.0))
        assert isinstance(model.root, Leaf)

    def test_every_sample_reaches_exactly_one_leaf(self):
        ds = gen_synthetic("f2", 600, 0.05, seed=4)
        model = build_tree(ds.X, ds.y, TreeConfig(
            d_max=5, n_min=5, tau_rmse=0.0, split=SplitConfig(step="auto", seed=1)))

        def leaf_counts(node):
            if isinstance(node, Leaf):
                return [node.n_train]
            return leaf_counts(node.left) + leaf_counts(node.right)

        counts = leaf_counts(model.root)
        assert sum(counts) == ds.n
        assert min(counts) >= 1

    def test_child_leaf_refinement_never_hurts(self):
        ds = gen_synthetic("sinc", 500, 0.025, seed=8)
        model = build_tree(ds.X, ds.y, TreeConfig(
            d_max=4, n_min=5, tau_rmse=0.0,
            split=SplitConfig(step="auto", ridge_alpha=0.0, seed=8)))
        checked = 0

        def walk(node, X, y):
            nonlocal checked
            if isinstance(node, Leaf):
                return
            o = node.split
            Xa = augment(X)
            a = Xa @ o.theta1
            b = Xa @ o.theta2
            left = a >= b if o.kind is HingeKind.MAX else a <= b
            if isinstance(node.left, Leaf) and isinstance(node.right, Leaf):
                parent = ridge_solve(Xa, y, 0.0)
                parent_sse = float(np.sum((y - Xa @ parent) ** 2))
                child_sse = 0.0
                for mask, leaf in ((left, node.left), (~left, node.right)):
                    child_sse += float(np.sum((y[mask] - Xa[mask] @ leaf.theta) ** 2))
                assert child_sse <= parent_sse + 1e-9
                checked += 1
            walk(node.left, X[left], y[left])
            walk(node.right, X[~left], y[~left])

        walk(model.root, ds.X, ds.y)
        assert checked > 0

    def test_depth_error_scaling_on_noiseless_sinc(self):
        ds = gen_synthetic("sinc", 1000, 0.0, seed=42)
        rmses = []
        for d_max in (2, 4, 6):
            model = build_tree(ds.X, ds.y, TreeConfig(
                d_max=d_max, n_min=5, tau_rmse=0.0,
                split=SplitConfig(step="auto", ridge_alpha=0.0, seed=7)))
            residual = predict_batch(model, ds.X) - ds.y
            rmses.append(float(np.sqrt(np.mean(residual ** 2))))
        assert rmses[0] >= rmses[1] >= rmses[2]
        assert rmses[2] < 0.5 * rmses[0]


class TestRowsOnceAtTheRoot:
    """``build_tree`` checks and augments the rows once; children are gathered by index."""

    @pytest.mark.parametrize("tau_rmse", [0.0, 0.03])
    def test_one_check_and_one_augment_per_tree(self, monkeypatch, tau_rmse):
        calls = {"augment": 0, "check_training": 0}
        for name in calls:
            real = getattr(hingetree.linear, name)

            def counted(*args, _name=name, _real=real, **kwargs):
                calls[_name] += 1
                return _real(*args, **kwargs)

            # The names of every module that could call them, present or not.
            for module in (hingetree.linear, hingetree.split, hingetree.tree):
                monkeypatch.setattr(module, name, counted, raising=False)
        X, y = hinge_regression(9, 400, 2, noise=0.2)
        model = build_tree(X, y, TreeConfig(tau_rmse=tau_rmse, split=SplitConfig(step="auto")))
        assert model.stats.n_splits >= 15
        assert calls == {"augment": 1, "check_training": 1}

    def test_each_node_is_its_parents_rows_in_order(self, monkeypatch):
        nodes = []

        def recording(X, y, config, **kwargs):
            nodes.append((X, y, kwargs["_node"]))
            return select_split(X, y, config, **kwargs)

        monkeypatch.setattr(hingetree.tree, "select_split", recording)
        X, y = hinge_regression(10, 300, 2, noise=0.2)
        config = TreeConfig(d_max=3, tau_rmse=0.0, split=SplitConfig(step="auto"))
        model = build_tree(X, y, config)
        assert len(nodes) == len(model.stats.per_node_traces) > 2
        for Xn, yn, node in nodes:
            assert Xn is node.X and yn is node.y
            assert node.Xa.tobytes() == augment(Xn).tobytes()
        assert nodes[0][0].tobytes() == X.tobytes() and nodes[0][1].tobytes() == y.tobytes()
        # The root's left child, next in preorder, holds its first-side rows in their order.
        split = model.root.split
        p, q = _first_pair(split.kind, split.theta1, split.theta2)
        first = affine(X, p) >= affine(X, q)
        assert nodes[1][0].tobytes() == X[first].tobytes()
        assert nodes[1][1].tobytes() == y[first].tobytes()


class TestGrowthExits:
    """The node a stalled split leaves, with ``select_split`` and ``median_fallback`` replaced."""

    CONFIG = TreeConfig(d_max=1, n_min=5, tau_rmse=0.0)

    @staticmethod
    def axis_split(X, n_second, **fallback):
        """An axis split as ``median_fallback`` encodes it, the ``n_second`` lowest-x0 rows second."""
        m = np.sort(X[:, 0])[n_second]
        return Split(kind=HingeKind.MAX, theta1=np.array([1.0, 0.0, -m]),
                     theta2=np.array([-1.0, 0.0, m]), **fallback)

    @staticmethod
    def outcome(split, converged):
        return SplitOutcome(theta1=split.theta1, theta2=split.theta2, kind=split.kind,
                            converged=converged, iterations=0, objective_trace=[1.0])

    def test_converged_hinge_with_a_small_child_gives_way_to_the_fallback(self, monkeypatch):
        X, y = random_regression(4, 60, 2)
        hinge = self.outcome(self.axis_split(X, self.CONFIG.n_min - 1), converged=True)
        monkeypatch.setattr(hingetree.tree, "select_split", lambda X, y, config, **_: hinge)
        model = build_tree(X, y, self.CONFIG)
        drawn = median_fallback(X, seed=derive_seed(self.CONFIG.split.seed, 0, 2))
        root = model.root
        assert isinstance(root, Internal) and root.split.used_fallback
        assert (root.split.fallback_feature, root.split.fallback_threshold) == (
            drawn.fallback_feature, drawn.fallback_threshold)
        assert root.left.n_train + root.right.n_train == 60
        assert model.stats.per_node_traces == ((1.0,),) and model.stats.n_fallbacks == 1

    def test_fallback_with_a_small_child_keeps_the_nodes_fit(self, monkeypatch):
        X, y = random_regression(4, 60, 2)
        stalled = self.outcome(self.axis_split(X, 30), converged=False)
        fallback = self.axis_split(X, self.CONFIG.n_min - 1, fallback_feature=0,
                                   fallback_threshold=0.0)
        monkeypatch.setattr(hingetree.tree, "select_split", lambda X, y, config, **_: stalled)
        monkeypatch.setattr(hingetree.tree, "median_fallback", lambda X, seed: fallback)
        model = build_tree(X, y, self.CONFIG)
        own = build_tree(X, y, replace(self.CONFIG, d_max=0)).root
        assert isinstance(model.root, Leaf) and model.root.n_train == 60
        assert model.root.theta.tobytes() == own.theta.tobytes()
        assert model.stats.per_node_traces == ((1.0,),) and model.stats.n_splits == 0


    def test_leaf_models_are_fitted_only_where_read(self):
        # Noisy data: no node fits exactly, so the smallest positive threshold stops no
        # node, but it asks for the RMSE, and so the model, of every node it tests.
        X, y = random_regression(5, 200, 2, noise=0.5)
        models, fits = [], []
        for tau in (0.0, 5e-324):
            with mock.patch.object(hingetree.tree, "fit_or_mean",
                                   wraps=hingetree.tree.fit_or_mean) as fit:
                models.append(build_tree(X, y, TreeConfig(d_max=3, tau_rmse=tau)))
            fits.append(fit.call_count)
        zero, tiny = models
        assert zero.stats.n_splits > 1
        assert model_to_dict(zero)["root"] == model_to_dict(tiny)["root"]
        assert zero.stats == tiny.stats
        assert fits == [zero.stats.n_leaves, zero.stats.n_leaves + zero.stats.n_splits]


class TestPredict:
    def test_single_leaf_model(self):
        X, y = random_regression(3, 20, 2)
        model = build_tree(X, y, TreeConfig(d_max=0))
        for row in X[:5]:
            assert predict(model, row) == affine_row(row.tolist(), model.root.theta.tolist())

    def test_tie_routes_left_on_abs_model(self):
        _, _, model = abs_model()
        left_value = affine_row([0.0], model.root.left.theta.tolist())
        assert predict(model, [0.0]) == left_value
        assert abs(left_value) <= 1e-8

    def test_route_replay_oracle(self):
        model = manual_model(depth=3, d=4, seed=6)
        gen = np.random.default_rng(10)
        points = gen.normal(size=(1000, 4))

        def value(theta, x):
            # Left-to-right float accumulation: w[0]*x[0], + w[j]*x[j], + bias.
            acc = None
            for xj, wj in zip(x, theta[:-1]):
                term = float(xj) * float(wj)
                acc = term if acc is None else acc + term
            return acc + float(theta[-1])

        def replay(x):
            # Independent re-evaluation of every comparison on the path.
            node = model.root
            while isinstance(node, Internal):
                o = node.split
                a = value(o.theta1, x)
                b = value(o.theta2, x)
                go_left = a >= b if o.kind is HingeKind.MAX else a <= b
                node = node.left if go_left else node.right
            return value(node.theta, x)

        for x in points:
            assert predict(model, x) == replay(x)

    def test_dimension_mismatch(self):
        model = manual_model(depth=1, d=3)
        with pytest.raises(DimensionMismatch):
            predict(model, [1.0, 2.0])

    def test_only_a_sequence_or_a_one_row_matrix_is_a_sample(self):
        model = manual_model(depth=2, d=2)
        assert predict(model, np.array([[1.0, 2.0]])) == predict(model, [1.0, 2.0])
        # Each holds two values, but neither is one sample of two features.
        for x in ([[1.0], [2.0]], np.array([1.0, 2.0]).reshape(1, 1, 2)):
            with pytest.raises(DimensionMismatch):
                predict(model, x)


class TestPredictBatch:
    def test_empty_matrix(self):
        model = manual_model(depth=1, d=2)
        out = predict_batch(model, np.empty((0, 2)))
        assert out.shape == (0,)

    def test_single_row(self):
        model = manual_model(depth=2, d=3)
        row = np.array([0.1, -0.7, 2.0])
        out = predict_batch(model, row.reshape(1, -1))
        assert out.shape == (1,)
        assert out[0] == predict(model, row)

    def test_matches_scalar_path(self):
        model = manual_model(depth=3, d=2, seed=4)
        X = np.random.default_rng(4).normal(size=(256, 2))
        batch = predict_batch(model, X)
        scalar = np.array([predict(model, row) for row in X])
        assert np.array_equal(batch, scalar)

    def test_wrong_width_rejected(self):
        model = manual_model(depth=1, d=2)
        with pytest.raises(DimensionMismatch):
            predict_batch(model, np.zeros((4, 3)))

    @pytest.mark.parametrize("X", [np.zeros(2), np.zeros((1, 1, 2))], ids=["vector", "3-d"])
    def test_batch_that_is_not_a_matrix_rejected(self, X):
        with pytest.raises(DimensionMismatch, match="expected a 2-D feature matrix"):
            predict_batch(manual_model(depth=1, d=2), X)


def multi_feature_data(name):
    # d >= 2, where a fixed-order sum and a BLAS dot product round differently.
    if name == "f2":
        ds = gen_synthetic("f2", 600, 0.05, seed=4)
        return ds.X, ds.y
    return hinge_regression(16, 400, 16)


class TestImmutableNodes:
    """A built tree cannot be changed in place, so its model's router table cannot go stale."""

    @pytest.mark.parametrize("edit, error", [
        (lambda leaf, node: setattr(leaf, "theta", np.zeros(2)), FrozenInstanceError),
        (lambda leaf, node: leaf.theta.__setitem__(-1, 1.0), ValueError),
        (lambda leaf, node: setattr(leaf, "n_train", 0), FrozenInstanceError),
        (lambda leaf, node: setattr(node, "left", node.right), FrozenInstanceError),
        (lambda leaf, node: setattr(node, "split", None), FrozenInstanceError),
        (lambda leaf, node: node.split.theta1.__setitem__(-1, 1.0), ValueError),
        (lambda leaf, node: node.split.theta2.__setitem__(0, 1.0), ValueError),
    ], ids=["leaf-theta", "leaf-coefficient", "leaf-n-train", "child", "split",
            "split-theta1-coefficient", "split-theta2-coefficient"])
    def test_each_edit_raises_and_predictions_agree(self, edit, error):
        X, _, model = abs_model()
        before = predict_batch(model, X)
        node = model.root
        with pytest.raises(error):
            edit(node.left, node)
        assert predict_batch(model, X).tobytes() == before.tobytes()
        assert np.array([predict(model, row) for row in X]).tobytes() == before.tobytes()

    def test_nodes_hold_read_only_copies_and_hash_by_identity(self):
        theta = np.array([1.0, 2.0])
        leaf = Leaf(theta=theta, n_train=3)
        split = Split(kind=HingeKind.MAX, theta1=theta, theta2=-theta)
        theta[0] = 5.0
        assert leaf.theta.tolist() == split.theta1.tolist() == [1.0, 2.0]
        assert not (leaf.theta.flags.writeable or split.theta2.flags.writeable)
        node = Internal(split=split, left=leaf, right=Leaf(theta=theta, n_train=1))
        assert len({leaf, node, leaf}) == 2


def f1_models():
    """A depth-3 tree and a 3-stage ensemble, fitted on 300 f1 rows (seed 1), and the rows."""
    ds = gen_synthetic("f1", 300, 0.1, seed=1)
    return (ds.X, build_tree(ds.X, ds.y, TreeConfig(d_max=3)),
            fit_boost(ds.X, ds.y, BoostConfig(m_stages=3)))


def all_bits(tree, ensemble, X):
    """Each model's batch predictions on ``X``, checked against its scalar predictions."""
    batch = predict_batch(tree, X), predict_boost_batch(ensemble, X)
    assert batch[0].tobytes() == np.array([predict(tree, row) for row in X]).tobytes()
    assert batch[1].tobytes() == np.array([predict_boost(ensemble, row) for row in X]).tobytes()
    return batch[0].tobytes() + batch[1].tobytes()


STANDARDIZE = {"standardize": {"shift": [0.5, -1.0], "scale": [2.0, 1.0],
                               "constant_mask": [False, False]}}


class TestFrozenModels:
    """A built model cannot be changed in place either; a changed model is a new one."""

    @pytest.mark.parametrize("edit, error", [
        (lambda tree, ens: setattr(tree.root.split, "theta1", tree.root.split.theta2 + 1.0),
         FrozenInstanceError),
        (lambda tree, ens: setattr(tree.root.split, "kind", HingeKind.MIN), FrozenInstanceError),
        (lambda tree, ens: setattr(tree, "root", tree.root.left), FrozenInstanceError),
        (lambda tree, ens: setattr(tree, "preprocess", STANDARDIZE), FrozenInstanceError),
        (lambda tree, ens: setitem(ens.learners, 0, ens.learners[1]), TypeError),
        (lambda tree, ens: setitem(ens.stage_retained, 0, False), TypeError),
        (lambda tree, ens: setattr(ens, "learners", ens.learners[1:]), FrozenInstanceError),
        (lambda tree, ens: setattr(ens, "preprocess", STANDARDIZE), FrozenInstanceError),
        (lambda tree, ens: setitem(ens.gamma_trace, 0, 0.0), TypeError),
        (lambda tree, ens: setitem(ens.loss_trace, 1, 10.0 * ens.loss_trace[0]), TypeError),
        (lambda tree, ens: setitem(tree.stats.per_node_traces, 0, ()), TypeError),
        (lambda tree, ens: setitem(tree.stats.per_node_traces[0], 0, 0.0), TypeError),
        (lambda tree, ens: setitem(tree._rows[0][0], 0, 0.0), TypeError),
        (lambda tree, ens: setattr(tree, "_rows", tree._rows[1:]), FrozenInstanceError),
    ], ids=["split-theta1", "split-kind", "root", "preprocess", "learner", "stage-retained",
            "learners", "boost-preprocess", "gamma-trace", "loss-trace", "node-traces",
            "node-trace", "row-coefficient", "rows"])
    def test_each_edit_raises_and_predictions_agree(self, edit, error):
        X, tree, ensemble = f1_models()
        before = all_bits(tree, ensemble, X)
        traces = tree.stats.per_node_traces, ensemble.gamma_trace, ensemble.loss_trace
        with pytest.raises(error):
            edit(tree, ensemble)
        assert all_bits(tree, ensemble, X) == before
        assert (tree.preprocess, ensemble.preprocess) == (None, None)
        assert (tree.stats.per_node_traces, ensemble.gamma_trace, ensemble.loss_trace) == traces
        assert all(check.ok for check in gamma_bound_check(ensemble))

    def test_replaced_preprocess_predicts_the_same_bits(self):
        X, tree, ensemble = f1_models()
        before = all_bits(tree, ensemble, X)
        tree2, ensemble2 = (replace(m, preprocess=STANDARDIZE) for m in (tree, ensemble))
        assert (tree2.preprocess, ensemble2.preprocess) == (STANDARDIZE, STANDARDIZE)
        assert all_bits(tree2, ensemble2, X) == before
        assert ensemble2.learners is ensemble.learners

    def test_splits_hold_no_growth_record(self):
        X, tree, _ = f1_models()
        for model in (tree, loads_model(dumps_model(tree))):
            splits = [node.split for node, _ in _preorder(model.root)
                      if isinstance(node, Internal)]
            assert splits and all(type(split) is Split for split in splits)
            for name in ("converged", "iterations", "objective_trace", "mu_trace",
                         "partition_sizes", "variant_iterations"):
                assert not any(hasattr(split, name) for split in splits), name


class TestCoefficientLength:
    """A model is built only from nodes whose affine models have d+1 coefficients."""

    def test_tree_of_more_features(self):
        X, y = random_regression(3, 80, 5)
        wide = build_tree(X, y, TreeConfig(d_max=2))
        with pytest.raises(DimensionMismatch, match=r"expected 3 coefficients .* found 6$"):
            HrtModel(root=wide.root, d=2, config=wide.config, stats=wide.stats)

    def test_one_short_leaf(self):
        root = Internal(split=Split(kind=HingeKind.MAX, theta1=[1.0, 0.0, 0.0],
                                    theta2=[0.0, 1.0, 0.0]),
                        left=Leaf(theta=[0.0, 0.0, 1.0], n_train=1),
                        right=Leaf(theta=[0.0, 1.0], n_train=1))
        with pytest.raises(DimensionMismatch, match=r"expected 3 coefficients .* found 2$"):
            HrtModel(root=root, d=2, config=TreeConfig(), stats=train_stats(root))

    def test_ensemble_learner_of_more_features(self):
        X, y = random_regression(4, 80, 3)
        learner = build_tree(X, y, TreeConfig(d_max=2))
        with pytest.raises(DimensionMismatch, match=r"expected 3 coefficients .* found 4$"):
            BoostModel(f0=0.0, eta=0.1, learners=[learner], gamma_trace=[0.5],
                       loss_trace=[1.0, 0.5], stage_retained=[True], d=2, config=BoostConfig())


def hex_floats(values):
    return [float.hex(v) for v in values]


class TestScalarRows:
    """:func:`predict` walks the model's rows, and only those; nothing else builds them."""

    @pytest.mark.parametrize("loaded", [False, True], ids=["fitted", "loaded"])
    def test_rows_hold_the_node_coefficients_as_python_floats(self, loaded):
        X, tree, _ = f1_models()
        if loaded:
            tree = loads_model(dumps_model(tree))
        predict(tree, X[0])
        nodes = [node for node, _ in _preorder(tree.root)]
        index = {node: i for i, node in enumerate(nodes)}
        assert type(tree._rows) is tuple and len(tree._rows) == len(nodes) > 1
        for i, (node, row) in enumerate(zip(nodes, tree._rows)):
            assert type(row) is tuple and len(row) == 4
            p, q, first, second = row
            sides = [p] if q is None else [p, q]
            assert all(type(side) is tuple and len(side) == tree.d + 1 for side in sides)
            assert all(type(v) is float for side in sides for v in side)
            if isinstance(node, Leaf):
                assert (q, first, second) == (None, i, i)
                assert hex_floats(p) == hex_floats(node.theta)
            else:
                o = node.split
                want_p, want_q = _first_pair(o.kind, o.theta1, o.theta2)
                assert (hex_floats(p), hex_floats(q)) == (hex_floats(want_p), hex_floats(want_q))
                assert (first, second) == (index[node.left], index[node.right])

    def test_predict_reads_only_the_rows_built_with_the_model(self):
        X, tree, _ = f1_models()
        before = np.array([predict(tree, row) for row in X])
        assert before.tobytes() == predict_batch(tree, X).tobytes()
        failing = mock.Mock(side_effect=AssertionError("predict walked the tree"))
        with mock.patch.object(hingetree.tree, "_first_pair", failing), \
                mock.patch.object(hingetree.tree, "_preorder", failing):
            after = np.array([predict(tree, row) for row in X])
        assert after.tobytes() == before.tobytes()

    def test_an_ensemble_holds_no_rows(self):
        _, _, ensemble = f1_models()
        assert not hasattr(ensemble, "_rows")
        assert all(learner._rows is None for learner in ensemble.learners)

    def test_rows_are_built_by_the_first_predict_only(self):
        X, tree, ensemble = f1_models()
        loaded = loads_model(dumps_model(ensemble))
        predict_batch(tree, X)
        predict_boost_batch(loaded, X)
        for row in X[:5]:
            predict_boost(ensemble, row)
        models = [tree, loads_model(dumps_model(tree)), *ensemble.learners, *loaded.learners]
        assert all(model._rows is None for model in models)
        assert not hasattr(ensemble, "_rows")
        predict(tree, X[0])
        rows = tree._rows
        assert rows is not None
        predict(tree, X[1])
        assert tree._rows is rows

    def test_predict_adds_no_instance_attribute(self):
        X, tree, _ = f1_models()
        names = list(vars(tree))
        assert tree._rows is None
        predict(tree, X[0])
        assert list(vars(tree)) == names and tree._rows is not None

    def test_a_replaced_model_builds_its_rows_again(self):
        X, tree, _ = f1_models()
        value = predict(tree, X[0])
        twin = replace(tree)
        assert twin._rows is None and twin._table is not tree._table
        assert float.hex(predict(twin, X[0])) == float.hex(value)
        assert twin._rows is not tree._rows and twin._rows == tree._rows

    @staticmethod
    def one_split(kind, theta1, theta2):
        """A hand-built tree whose first branch predicts 1.0 and second -1.0."""
        root = Internal(split=Split(kind=kind, theta1=theta1, theta2=theta2),
                        left=Leaf(theta=[0.0, 0.0, 1.0], n_train=1),
                        right=Leaf(theta=[0.0, 0.0, -1.0], n_train=1))
        return HrtModel(root=root, d=2, config=TreeConfig(), stats=train_stats(root))

    @staticmethod
    def scalar_and_batch(model, rows):
        rows = np.asarray(rows, dtype=float)
        one = np.array([predict(model, row) for row in rows])
        assert one.tobytes() == predict_batch(model, rows).tobytes()
        return one.tolist()

    @pytest.mark.parametrize("kind", list(HingeKind))
    def test_row_on_the_hyperplane_takes_the_first_branch(self, kind):
        # The sides x0 and x1 + 0.25 tie exactly on both rows.
        model = self.one_split(kind, [1.0, 0.0, 0.0], [0.0, 1.0, 0.25])
        assert self.scalar_and_batch(model, [[0.75, 0.5], [-2.0, -2.25]]) == [1.0, 1.0]
        # Off the hyperplane each variant sends the row by its own order.
        above = 1.0 if kind is HingeKind.MAX else -1.0
        assert self.scalar_and_batch(model, [[1.0, 0.5], [0.5, 0.5]]) == [above, -above]

    @pytest.mark.parametrize("side", [1, 2])
    @pytest.mark.parametrize("kind", list(HingeKind))
    def test_a_nan_side_takes_the_second_branch(self, kind, side):
        # On the finite row (1e10, 1e10) this side overflows to inf - inf = NaN.
        nan_side, other = [1e300, -1e300, 0.0], [0.0, 0.0, 0.0]
        theta1, theta2 = (nan_side, other) if side == 1 else (other, nan_side)
        model = self.one_split(kind, theta1, theta2)
        assert self.scalar_and_batch(model, [[1e10, 1e10]]) == [-1.0]


class TestRoutingContract:
    @pytest.mark.parametrize("name", ["f2", "hinge16"])
    def test_training_rows_reach_their_leaves_and_batch_matches_scalar(self, name):
        X, y = multi_feature_data(name)
        model = build_tree(X, y, TreeConfig(
            d_max=5, n_min=5, tau_rmse=0.0, split=SplitConfig(step="auto", seed=1)))
        labelled, counts = relabel_leaves(model)
        assert len(counts) > 1
        leaf_of_row = predict_batch(labelled, X)
        reached = np.bincount(leaf_of_row.astype(int), minlength=len(counts))
        assert reached.tolist() == counts
        batch = predict_batch(model, X)
        assert np.array_equal(batch, [predict(model, row) for row in X])

    @pytest.mark.parametrize("d", [1, 2, 17, 64])
    def test_chunk_invariance(self, d):
        model = manual_model(depth=4, d=d, seed=d)
        X = np.random.default_rng(d).normal(size=(40, d))
        full = predict_batch(model, X)
        for size in (1, 7, X.shape[0]):
            chunks = [predict_batch(model, X[i:i + size]) for i in range(0, X.shape[0], size)]
            assert np.concatenate(chunks).tobytes() == full.tobytes()
        assert np.array_equal(full, [predict(model, row) for row in X])


class TestTreeStats:
    def test_single_leaf(self):
        X, y = random_regression(1, 30, 2)
        s = build_tree(X, y, TreeConfig(d_max=0)).stats
        assert (s.depth, s.n_leaves, s.n_splits, s.n_fallbacks) == (0, 1, 0, 0)
        assert s.per_node_traces == ()

    def test_perfect_depth_two(self):
        model = manual_model(depth=2, d=2)
        s = train_stats(model.root)
        assert (s.depth, s.n_leaves, s.n_splits) == (2, 4, 3)

    def test_abs_model_counts(self):
        _, _, model = abs_model()
        s = model.stats
        assert (s.depth, s.n_leaves, s.n_splits, s.n_fallbacks) == (1, 2, 1, 0)
        assert s.fallback_rate == 0.0

    def test_matches_stored_stats(self):
        ds = gen_synthetic("sinc", 500, 0.025, seed=3)
        model = build_tree(ds.X, ds.y, TreeConfig(d_max=5))
        s = model.stats
        walked = train_stats(model.root)
        assert (s.depth, s.n_leaves, s.n_splits, s.n_fallbacks) == (
            walked.depth, walked.n_leaves, walked.n_splits, walked.n_fallbacks)
        # A winning variant's trace holds one value per iteration plus the start.
        assert s.total_split_iterations == sum(len(t) - 1 for t in s.per_node_traces)
        assert s.total_variant_iterations >= s.total_split_iterations
        assert (walked.total_split_iterations, walked.total_variant_iterations,
                walked.per_node_traces) == (0, 0, None)
        assert loads_model(dumps_model(model)).stats == walked

    def test_traces_always_collected(self):
        ds = gen_synthetic("sinc", 300, 0.025, seed=1)
        s = build_tree(ds.X, ds.y, TreeConfig(d_max=3)).stats
        # One trace per optimized split, those a fallback replaced included.
        assert len(s.per_node_traces) >= s.n_splits > 0
        assert all(len(t) >= 1 for t in s.per_node_traces)


class TestSeeds:
    def test_derive_seed_is_deterministic_and_spreads(self):
        seeds = {derive_seed(1234, level, slot)
                 for level in range(16) for slot in range(4)}
        assert len(seeds) == 64
        assert derive_seed(1234, 3, 1) == derive_seed(1234, 3, 1)
        assert derive_seed(1234, 3, 1) != derive_seed(1235, 3, 1)

    def test_nodes_are_optimized_in_preorder(self, monkeypatch):
        configs = []

        def recording(X, y, config, **_):
            configs.append(config)
            return select_split(X, y, config)

        monkeypatch.setattr(hingetree.tree, "select_split", recording)
        ds = gen_synthetic("f1", 400, 0.1, seed=3)
        config = TreeConfig(d_max=3, split=SplitConfig(step="auto", seed=11))
        model = build_tree(ds.X, ds.y, config)
        assert len(model.stats.per_node_traces) == model.stats.n_splits == 7

        def preorder(node, seed, depth):
            if isinstance(node, Internal):
                yield seed
                yield from preorder(node.left, derive_seed(seed, depth, 0), depth + 1)
                yield from preorder(node.right, derive_seed(seed, depth, 1), depth + 1)

        seeds = [c.seed for c in configs]
        assert seeds == list(preorder(model.root, config.split.seed, 0))
        assert configs == [replace(config.split, seed=s) for s in seeds]
