import json
import re

import numpy as np
import pytest

from hingetree import (
    BoostConfig,
    CorruptModel,
    SplitConfig,
    TreeConfig,
    build_tree,
    dumps_model,
    fit_boost,
    gen_synthetic,
    load_model,
    loads_model,
    model_from_dict,
    model_to_dict,
    predict_batch,
    predict_boost_batch,
    save_model,
)
from hingetree.tree import Internal


def trained_tree(seed=0):
    ds = gen_synthetic("sinc", 600, 0.025, seed=seed)
    return ds, build_tree(ds.X, ds.y, TreeConfig(
        d_max=5, n_min=5, tau_rmse=0.01,
        split=SplitConfig(step="auto", ridge_alpha=0.001, seed=seed)))


def trained_boost(seed=0):
    ds = gen_synthetic("f2", 400, 0.05, seed=seed)
    return ds, fit_boost(ds.X, ds.y, BoostConfig(m_stages=6, eta=0.2))


class TestTreeRoundTrip:
    def test_predictions_bit_identical(self, tmp_path):
        ds, model = trained_tree()
        path = tmp_path / "tree.json"
        save_model(model, path)
        back = load_model(path)
        points = np.random.default_rng(1).uniform(-1.5, 1.5, size=(1000, 1))
        assert np.array_equal(predict_batch(model, points),
                              predict_batch(back, points))

    def test_structure_and_config_survive(self, tmp_path):
        ds, model = trained_tree(seed=3)
        path = tmp_path / "tree.json"
        save_model(model, path)
        back = load_model(path)
        assert back.d == model.d
        assert back.config == model.config
        assert back.stats.n_leaves == model.stats.n_leaves
        assert back.stats.depth == model.stats.depth
        assert back.stats.n_fallbacks == model.stats.n_fallbacks

    def test_serialization_is_byte_stable(self):
        _, model = trained_tree(seed=5)
        assert dumps_model(model) == dumps_model(model)

    def test_document_with_dropped_fallback_key_loads(self):
        # Earlier format-1 files store TreeConfig.fallback_on_nonconvergence.
        _, model = trained_tree(seed=2)
        doc = model_to_dict(model)
        assert "fallback_on_nonconvergence" not in doc["config"]
        doc["config"]["fallback_on_nonconvergence"] = True
        back = loads_model(json.dumps(doc))
        assert back.config == model.config
        points = np.random.default_rng(4).uniform(-1.5, 1.5, size=(500, 1))
        assert np.array_equal(predict_batch(back, points), predict_batch(model, points))

    def test_fallback_fields_only_when_used(self):
        _, model = trained_tree(seed=7)
        doc = model_to_dict(model)

        def walk(node):
            if "leaf" in node:
                return
            body = node["internal"]
            if body["used_fallback"]:
                assert "fallback_feature" in body and "fallback_threshold" in body
            else:
                assert "fallback_feature" not in body
            walk(body["left"])
            walk(body["right"])

        walk(doc["root"])

    def test_format_version_checked(self):
        _, model = trained_tree()
        doc = model_to_dict(model)
        doc["format_version"] = 99
        with pytest.raises(ValueError):
            model_from_dict(doc)

    @pytest.mark.parametrize("value", [True, 1.0, "1", None])
    def test_format_version_that_is_not_the_integer(self, value):
        # True == 1 and 1.0 == 1 in Python; neither is the format's integer.
        doc = model_to_dict(trained_tree()[1])
        doc["format_version"] = value
        with pytest.raises(ValueError, match=f"^unsupported format_version {value!r}$"):
            loads_model(json.dumps(doc))

    def test_unknown_kind_rejected(self):
        _, model = trained_tree()
        doc = model_to_dict(model)
        doc["kind"] = "mystery"
        with pytest.raises(ValueError):
            model_from_dict(doc)

    def test_json_floats_round_trip_exactly(self):
        _, model = trained_tree(seed=11)
        doc = json.loads(dumps_model(model))
        back = model_from_dict(doc)

        def thetas(node):
            if not isinstance(node, Internal):
                return [node.theta]
            return ([node.split.theta1, node.split.theta2]
                    + thetas(node.left) + thetas(node.right))

        for a, b in zip(thetas(model.root), thetas(back.root)):
            assert np.array_equal(a, b)


class TestBoostRoundTrip:
    def test_predictions_bit_identical(self, tmp_path):
        ds, model = trained_boost()
        path = tmp_path / "boost.json"
        save_model(model, path)
        back = load_model(path)
        points = np.random.default_rng(2).uniform(-3, 3, size=(1000, 2))
        assert np.array_equal(predict_boost_batch(model, points),
                              predict_boost_batch(back, points))

    def test_traces_survive(self):
        _, model = trained_boost(seed=4)
        back = loads_model(dumps_model(model))
        assert back.f0 == model.f0
        assert back.eta == model.eta
        assert back.gamma_trace == model.gamma_trace
        assert back.loss_trace == model.loss_trace
        assert back.stage_retained == model.stage_retained
        assert len(back.learners) == len(model.learners)

    def test_document_with_dropped_fallback_key_loads(self):
        _, model = trained_boost(seed=3)
        doc = model_to_dict(model)
        doc["config"]["tree"]["fallback_on_nonconvergence"] = True
        back = loads_model(json.dumps(doc))
        assert back.config == model.config
        points = np.random.default_rng(5).uniform(-3, 3, size=(500, 2))
        assert np.array_equal(predict_boost_batch(back, points),
                              predict_boost_batch(model, points))

    def test_legacy_record_gamma_key_loads(self):
        # Earlier format-1 files store BoostConfig.record_gamma.
        _, model = trained_boost(seed=7)
        doc = model_to_dict(model)
        assert "record_gamma" not in doc["config"]
        doc["config"]["record_gamma"] = True
        back = loads_model(json.dumps(doc))
        assert back.config == model.config
        assert back.gamma_trace == model.gamma_trace
        points = np.random.default_rng(8).uniform(-3, 3, size=(500, 2))
        assert predict_boost_batch(back, points).tobytes() == \
            predict_boost_batch(model, points).tobytes()

    def test_envelope_fields(self):
        _, model = trained_boost(seed=5)
        doc = model_to_dict(model)
        for key in ("format_version", "f0", "eta", "gamma_trace", "loss_trace",
                    "learners", "d", "config", "stage_retained"):
            assert key in doc

    def test_preprocess_block_round_trips(self, tmp_path):
        _, model = trained_boost(seed=6)
        model.preprocess = {"standardize": {"shift": [0.5, -1.0],
                                            "scale": [2.0, 1.0],
                                            "constant_mask": [False, False]}}
        path = tmp_path / "pre.json"
        save_model(model, path)
        assert load_model(path).preprocess == model.preprocess


def first_leaf(node_doc):
    while "internal" in node_doc:
        node_doc = node_doc["internal"]["left"]
    return node_doc["leaf"]


class TestCorruptModel:
    def tree_doc(self):
        doc = model_to_dict(trained_tree()[1])
        assert "internal" in doc["root"]
        return doc

    def test_missing_root(self):
        doc = self.tree_doc()
        del doc["root"]
        with pytest.raises(CorruptModel, match="'root'"):
            model_from_dict(doc)

    def test_internal_node_without_left_child(self):
        doc = self.tree_doc()
        del doc["root"]["internal"]["left"]
        with pytest.raises(CorruptModel, match="root.internal: missing 'left'"):
            model_from_dict(doc)

    def test_short_theta(self):
        doc = self.tree_doc()
        first_leaf(doc["root"])["theta"].pop()
        with pytest.raises(CorruptModel, match=f"leaf.theta: expected a list of {doc['d'] + 1}"):
            model_from_dict(doc)

    def test_short_split_theta(self):
        doc = self.tree_doc()
        doc["root"]["internal"]["theta2"].pop()
        with pytest.raises(CorruptModel, match="root.internal.theta2"):
            model_from_dict(doc)

    def test_non_finite_or_non_numeric_theta(self):
        for bad in (float("nan"), float("inf"), "1.0", None, True):
            doc = self.tree_doc()
            first_leaf(doc["root"])["theta"][0] = bad
            with pytest.raises(CorruptModel):
                model_from_dict(doc)

    def test_node_with_no_known_tag(self):
        doc = self.tree_doc()
        doc["root"]["internal"]["right"] = {"branch": {}}
        with pytest.raises(CorruptModel, match="root.internal.right"):
            model_from_dict(doc)

    def test_unknown_hinge_kind(self):
        doc = self.tree_doc()
        doc["root"]["internal"]["kind"] = "median"
        with pytest.raises(CorruptModel, match="root.internal.kind"):
            model_from_dict(doc)

    def fallback_doc(self):
        """A tree document whose root is a well-formed fallback split."""
        doc = self.tree_doc()
        doc["root"]["internal"].update(used_fallback=True, fallback_feature=0,
                                       fallback_threshold=0.25)
        return doc

    def test_well_formed_fallback_split_loads(self):
        root = loads_model(json.dumps(self.fallback_doc())).root
        assert (root.split.used_fallback, root.split.fallback_feature,
                root.split.fallback_threshold) == (True, 0, 0.25)

    @pytest.mark.parametrize("value", [[1], 1.0, True, "0", None, -1, 1])
    def test_bad_fallback_feature(self, value):
        doc = self.fallback_doc()
        doc["root"]["internal"]["fallback_feature"] = value  # d is 1
        with pytest.raises(CorruptModel, match=r"root.internal.fallback_feature: expected "
                                               r"a feature index in \[0, 1\)"):
            loads_model(json.dumps(doc))

    @pytest.mark.parametrize("value", ["x", None, [0.5], True, float("nan"), float("inf")])
    def test_bad_fallback_threshold(self, value):
        doc = self.fallback_doc()
        doc["root"]["internal"]["fallback_threshold"] = value
        with pytest.raises(CorruptModel, match="root.internal.fallback_threshold: expected "
                                               "a finite number"):
            loads_model(json.dumps(doc))

    @pytest.mark.parametrize("key", ["fallback_feature", "fallback_threshold"])
    def test_fallback_split_without_its_field(self, key):
        doc = self.fallback_doc()
        del doc["root"]["internal"][key]
        with pytest.raises(CorruptModel, match=f"root.internal: missing '{key}'"):
            loads_model(json.dumps(doc))

    def test_used_fallback_that_is_not_a_boolean(self):
        doc = self.tree_doc()
        doc["root"]["internal"]["used_fallback"] = "no"
        with pytest.raises(CorruptModel, match="root.internal.used_fallback"):
            loads_model(json.dumps(doc))

    def test_fallback_fields_of_an_optimized_split_are_ignored(self):
        doc = self.tree_doc()
        doc["root"]["internal"].update(used_fallback=False, fallback_feature=[1],
                                       fallback_threshold="x")
        model = loads_model(json.dumps(doc))
        assert model.root.split.fallback_feature is None
        assert dumps_model(model) == dumps_model(loads_model(json.dumps(self.tree_doc())))

    def test_unknown_config_field(self):
        doc = self.tree_doc()
        doc["config"]["split"]["momentum"] = 0.9
        with pytest.raises(CorruptModel, match="momentum"):
            model_from_dict(doc)

    def test_out_of_range_tree_step(self):
        doc = self.tree_doc()
        doc["config"]["split"]["step"] = 5
        with pytest.raises(CorruptModel, match=r"config: fixed step must lie in \(0, 1\]"):
            model_from_dict(doc)

    def test_out_of_range_boost_eta(self):
        doc = model_to_dict(trained_boost()[1])
        doc["config"]["eta"] = 5
        with pytest.raises(CorruptModel, match=r"config: eta must lie in \(0, 1\]"):
            model_from_dict(doc)

    def test_non_numeric_boost_stage_count(self):
        doc = model_to_dict(trained_boost()[1])
        doc["config"]["m_stages"] = "many"
        with pytest.raises(CorruptModel, match="config: invalid literal"):
            model_from_dict(doc)

    def test_out_of_range_boost_tree_step(self):
        doc = model_to_dict(trained_boost()[1])
        doc["config"]["tree"]["split"]["step"] = -1
        with pytest.raises(CorruptModel, match="config.tree: fixed step"):
            model_from_dict(doc)

    def test_boost_learner_with_short_theta(self):
        _, model = trained_boost()
        doc = model_to_dict(model)
        first_leaf(doc["learners"][-1])["theta"].append(0.0)
        with pytest.raises(CorruptModel, match=r"learners\[%d\]" % (len(doc["learners"]) - 1)):
            model_from_dict(doc)

    def test_boost_without_learners(self):
        _, model = trained_boost()
        doc = model_to_dict(model)
        del doc["learners"]
        with pytest.raises(CorruptModel, match="'learners'"):
            model_from_dict(doc)

    @pytest.mark.parametrize("key, value", [
        ("f0", "zero"), ("f0", None), ("eta", "fast"), ("eta", [0.2]),
    ])
    def test_non_numeric_boost_scalar(self, key, value):
        doc = model_to_dict(trained_boost()[1])
        doc[key] = value
        with pytest.raises(CorruptModel, match=f"^{key}: "):
            model_from_dict(doc)

    @pytest.mark.parametrize("key", ["loss_trace", "gamma_trace"])
    def test_non_numeric_trace_entry(self, key):
        doc = model_to_dict(trained_boost()[1])
        doc[key][1] = "low"
        with pytest.raises(CorruptModel, match=f"^{key}: "):
            model_from_dict(doc)

    @pytest.mark.parametrize("value", ["many", None, float("inf")])
    def test_non_numeric_leaf_count(self, value):
        doc = self.tree_doc()
        first_leaf(doc["root"])["n_train"] = value
        with pytest.raises(CorruptModel, match=r"^root(\.internal\.left)+\.leaf\.n_train: "):
            model_from_dict(doc)

    def test_non_numeric_boost_leaf_count(self):
        doc = model_to_dict(trained_boost()[1])
        first_leaf(doc["learners"][2])["n_train"] = "many"
        with pytest.raises(CorruptModel, match=r"^learners\[2\].*\.leaf\.n_train: "):
            model_from_dict(doc)

    @pytest.mark.parametrize("damage, message", [
        (lambda doc: doc["loss_trace"].pop(), "loss_trace: expected 7 entries for 6 stages"),
        (lambda doc: doc["loss_trace"].append(0.0), "loss_trace: expected 7 entries"),
        (lambda doc: doc["stage_retained"].pop(), "loss_trace: expected 6 entries for 5 stages"),
        (lambda doc: doc["stage_retained"].__setitem__(0, False),
         "stage_retained: 5 retained stages for 6 learners"),
        (lambda doc: doc["learners"].pop(), "stage_retained: 6 retained stages for 5 learners"),
        (lambda doc: doc["gamma_trace"].pop(), "gamma_trace: expected 6 entries or none"),
        (lambda doc: doc.__setitem__("loss_trace", 0.5), "loss_trace: expected a list"),
    ], ids=["short-loss", "long-loss", "short-retained", "unretained", "short-learners",
            "short-gamma", "loss-not-list"])
    def test_boost_traces_that_disagree_in_length(self, damage, message):
        doc = model_to_dict(trained_boost()[1])
        assert len(doc["stage_retained"]) == len(doc["learners"]) == 6
        damage(doc)
        with pytest.raises(CorruptModel, match="^" + re.escape(message)):
            model_from_dict(doc)

    def test_document_that_is_not_an_object(self):
        with pytest.raises(CorruptModel):
            loads_model("[1, 2, 3]")

    def test_truncated_text(self):
        text = dumps_model(trained_tree()[1])
        with pytest.raises(CorruptModel, match="not valid JSON"):
            loads_model(text[: len(text) // 2])

    def test_kind_that_is_not_a_string(self):
        doc = self.tree_doc()
        doc["kind"] = ["hrt"]
        with pytest.raises(ValueError, match=r"unknown model kind \['hrt'\]"):
            model_from_dict(doc)

    @pytest.mark.parametrize("value", [3, 0, -0.5, float("nan"), float("inf")])
    def test_boost_eta_out_of_range(self, value):
        # Checked against its range, not against config.eta.
        doc = model_to_dict(trained_boost()[1])
        doc["eta"] = value
        with pytest.raises(CorruptModel, match=r"^eta: must lie in \(0, 1\]"):
            loads_model(json.dumps(doc))

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_boost_f0(self, value):
        doc = model_to_dict(trained_boost()[1])
        doc["f0"] = value
        with pytest.raises(CorruptModel, match="^f0: expected a finite number"):
            loads_model(json.dumps(doc))

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_loss_trace_entry(self, value):
        doc = model_to_dict(trained_boost()[1])
        doc["loss_trace"][2] = value
        with pytest.raises(CorruptModel, match=r"^loss_trace\[2\]: expected a finite number"):
            loads_model(json.dumps(doc))

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_gamma_trace_entry(self, value):
        doc = model_to_dict(trained_boost()[1])
        doc["gamma_trace"][3] = value
        with pytest.raises(CorruptModel, match=r"^gamma_trace\[3\]: expected a finite number"):
            loads_model(json.dumps(doc))

    @pytest.mark.parametrize("value", ["no", "yes", 1, 0, None])
    def test_stage_retained_entry_that_is_not_a_boolean(self, value):
        doc = model_to_dict(trained_boost()[1])
        doc["stage_retained"][1] = value
        with pytest.raises(CorruptModel, match=r"^stage_retained\[1\]: expected true or false"):
            loads_model(json.dumps(doc))

    def test_integer_beyond_the_float_range(self):
        doc = self.tree_doc()
        first_leaf(doc["root"])["theta"][0] = 10 ** 400
        with pytest.raises(CorruptModel, match="leaf.theta: expected a list of 2 finite"):
            loads_model(json.dumps(doc))

    @pytest.mark.parametrize("damage", [
        lambda pre: pre["standardize"]["shift"].pop(),
        lambda pre: pre["standardize"]["scale"].__setitem__(1, 0.0),
        lambda pre: pre["standardize"]["shift"].__setitem__(0, float("nan")),
        lambda pre: pre["standardize"]["shift"].__setitem__(0, "0.5"),
        lambda pre: pre["standardize"]["constant_mask"].__setitem__(0, 0),
        lambda pre: pre["standardize"].pop("scale"),
        lambda pre: pre.__setitem__("standardize", [1.0, 2.0]),
    ], ids=["short-shift", "zero-scale", "nan-shift", "string-shift", "int-flag",
            "no-scale", "not-an-object"])
    def test_bad_preprocess_block(self, damage):
        _, model = trained_boost(seed=6)
        model.preprocess = {"standardize": {"shift": [0.5, -1.0], "scale": [2.0, 1.0],
                                            "constant_mask": [False, False]}}
        doc = model_to_dict(model)
        damage(doc["preprocess"])
        with pytest.raises(CorruptModel, match=r"^preprocess\.standardize: expected lists"):
            loads_model(json.dumps(doc))

    def test_preprocess_of_another_width(self):
        doc = self.tree_doc()  # d is 1
        doc["preprocess"] = {"standardize": {"shift": [0.0, 0.0], "scale": [1.0, 1.0],
                                             "constant_mask": [False, False]}}
        with pytest.raises(CorruptModel, match="^preprocess.standardize: 2 features for a "
                                               "model of 1"):
            loads_model(json.dumps(doc))

    def test_preprocess_without_its_transform(self):
        doc = self.tree_doc()
        doc["preprocess"] = {}
        with pytest.raises(CorruptModel, match="^preprocess: missing 'standardize'"):
            loads_model(json.dumps(doc))
