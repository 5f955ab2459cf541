import codecs
import json
import os
import subprocess
import sys

import numpy as np
import pytest

from dataclasses import asdict

import hingetree
from hingetree import (
    BoostConfig,
    SplitConfig,
    TreeConfig,
    build_tree,
    default_boost_tree_config,
    derive_seed,
    evaluate,
    gen_synthetic,
    load_csv,
    load_model,
    predict_batch,
    split_train_test,
    standardize,
    write_csv,
)
from hingetree.cli import _fmt, ablate_step_rows, main
from hingetree.metrics import FLOPS_MODES
from conftest import nested_document

NUMBER = (int, float)
EVAL = {"rmse": NUMBER, "mae": NUMBER, "r2": (int, float, type(None)), "n": int,
        "r2_defined": bool}
FLOPS = {"inference_flops_per_sample": NUMBER, "total_parameters": int}


def assert_shape(doc, shape):
    """``doc`` holds each key of ``shape`` with a value of its JSON type(s); a bool is no number."""
    assert isinstance(doc, dict)
    for key, kind in shape.items():
        assert key in doc, key
        value = doc[key]
        if kind is not None:
            assert isinstance(value, kind) and (kind is bool or not isinstance(value, bool)), key


def assert_eval_and_flops(report, eval_key):
    assert_shape(report[eval_key], EVAL)
    assert set(report["flops"]) == set(FLOPS_MODES)
    for mode in FLOPS_MODES:
        assert_shape(report["flops"][mode], FLOPS)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


SINC = "sinc:n=400:sigma=0.025:seed=7"


class TestTrain:
    def test_train_writes_model_and_report(self, tmp_path, capsys):
        out = tmp_path / "m.json"
        code, text, _ = run(capsys, "train", SINC, "hrt",
                            "--max-depth", "6", "--ridge", "0.001",
                            "--step", "0.01", "--tau", "0.03",
                            "--out", str(out), "--seed", "3")
        assert code == 0
        assert out.exists()
        assert "train_eval: rmse=" in text
        model = load_model(out)
        assert model.d == 1

    def test_rerun_is_byte_identical(self, tmp_path, capsys):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        args = [SINC, "hrt", "--step", "0.05", "--seed", "11"]
        assert run(capsys, "train", *args, "--out", str(a))[0] == 0
        assert run(capsys, "train", *args, "--out", str(b))[0] == 0
        assert a.read_bytes() == b.read_bytes()

    def test_json_report_matches_schema_and_text(self, tmp_path, capsys):
        out = tmp_path / "m.json"
        report = tmp_path / "r.json"
        code, text, _ = run(capsys, "train", SINC, "hrt", "--out", str(out),
                            "--json", str(report), "--seed", "1")
        assert code == 0
        payload = json.loads(report.read_text())
        assert_shape(payload, dict.fromkeys(["dataset", "config", "seed", "complexity",
                                             "model_path"]) | {
            "command": str, "model_kind": str, "train_eval": dict, "flops": dict,
            "fit_time_s": NUMBER})
        assert payload["command"] == "train" and payload["model_kind"] in ("hrt", "boost")
        assert_eval_and_flops(payload, "train_eval")
        rmse = payload["train_eval"]["rmse"]
        assert f"rmse={rmse:.6g}" in text

    def test_max_depth_zero_is_single_leaf(self, tmp_path, capsys):
        out = tmp_path / "m.json"
        code, text, _ = run(capsys, "train", SINC, "hrt",
                            "--max-depth", "0", "--out", str(out))
        assert code == 0
        assert "leaves=1" in text

    def test_train_from_csv_with_target(self, tmp_path, capsys):
        csv = tmp_path / "d.csv"
        write_csv(gen_synthetic("twisted_sigmoid", 200, 0.025, seed=2), csv)
        out = tmp_path / "m.json"
        code, _, _ = run(capsys, "train", str(csv), "--target", "y", "hrt",
                         "--max-depth", "2", "--out", str(out))
        assert code == 0

    def test_train_from_csv_with_byte_order_mark(self, tmp_path, capsys):
        csv = tmp_path / "d.csv"
        write_csv(gen_synthetic("twisted_sigmoid", 200, 0.025, seed=2), csv)
        # The target first, so that the mark precedes its name.
        rows = [line.split(",") for line in csv.read_text().splitlines()]
        csv.write_text("".join(",".join(cells[-1:] + cells[:-1]) + "\n" for cells in rows))
        marked = tmp_path / "marked.csv"
        marked.write_bytes(codecs.BOM_UTF8 + csv.read_bytes())
        for data, out in ((csv, "plain.json"), (marked, "marked.json")):
            code, _, _ = run(capsys, "train", str(data), "--target", "y", "hrt",
                             "--max-depth", "2", "--out", str(tmp_path / out))
            assert code == 0
        assert (tmp_path / "marked.json").read_bytes() == (tmp_path / "plain.json").read_bytes()

    def test_bad_step_is_config_error(self, tmp_path, capsys):
        code, _, err = run(capsys, "train", SINC, "hrt",
                           "--step", "1.5", "--out", str(tmp_path / "m.json"))
        assert code == 2
        assert "--step" in err

    def test_missing_dataset_is_data_error(self, tmp_path, capsys):
        code, _, err = run(capsys, "train", "/does/not/exist.csv", "hrt",
                           "--out", str(tmp_path / "m.json"))
        assert code == 3

    def test_non_finite_csv_cell_is_data_error(self, tmp_path, capsys):
        csv = tmp_path / "d.csv"
        write_csv(gen_synthetic("twisted_sigmoid", 50, 0.025, seed=2), csv)
        lines = csv.read_text().splitlines()
        lines[4] = lines[4].split(",")[0] + ",nan"
        csv.write_text("\n".join(lines) + "\n")
        code, _, err = run(capsys, "train", str(csv), "hrt",
                           "--out", str(tmp_path / "m.json"))
        assert code == 3
        assert "row 5, col 2" in err

    def test_csv_that_is_not_utf8_is_data_error(self, tmp_path, capsys):
        csv = tmp_path / "d.csv"
        write_csv(gen_synthetic("twisted_sigmoid", 50, 0.025, seed=2), csv)
        lines = csv.read_bytes().splitlines()
        lines[4] = lines[4].split(b",")[0] + b",\xff"
        csv.write_bytes(b"\n".join(lines) + b"\n")
        code, _, err = run(capsys, "train", str(csv), "hrt",
                           "--out", str(tmp_path / "m.json"))
        assert code == 3
        assert err == "error: row 5, col 2: byte 0xff is not UTF-8 text\n"

    def test_boost_training(self, tmp_path, capsys):
        out = tmp_path / "b.json"
        code, text, _ = run(capsys, "train", SINC, "boost",
                            "--stages", "8", "--eta", "0.2", "--out", str(out))
        assert code == 0
        assert "stages_retained=8" in text
        model = load_model(out)
        assert len(model.learners) == 8

    def test_standardize_is_stored_with_the_model(self, tmp_path, capsys):
        out = tmp_path / "m.json"
        code, _, _ = run(capsys, "train", "f2:n=300:sigma=0.05:seed=4", "hrt",
                         "--max-depth", "3", "--standardize", "--out", str(out))
        assert code == 0
        model = load_model(out)
        assert model.preprocess is not None
        assert "standardize" in model.preprocess

    @pytest.mark.parametrize("kind, expected", [
        ("hrt", lambda seed: TreeConfig(split=SplitConfig(seed=seed))),
        ("boost", lambda seed: BoostConfig(tree=default_boost_tree_config(seed))),
    ], ids=["hrt", "boost"])
    def test_defaults_are_the_config_dataclasses(self, tmp_path, capsys, kind, expected):
        report = tmp_path / "r.json"
        code, _, _ = run(capsys, "train", "sinc:n=60:sigma=0.025:seed=7", kind,
                         "--out", str(tmp_path / "m.json"), "--json", str(report),
                         "--seed", "9")
        assert code == 0
        assert json.loads(report.read_text())["config"] == asdict(expected(9))

    def test_config_file_defaults_and_flag_override(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"max_depth": 0, "tau": 0.03}))
        out = tmp_path / "m.json"
        report = tmp_path / "r.json"
        code, _, _ = run(capsys, "train", SINC, "hrt", "--config", str(cfg),
                         "--out", str(out), "--json", str(report))
        assert code == 0
        assert json.loads(report.read_text())["config"]["d_max"] == 0
        code, _, _ = run(capsys, "train", SINC, "hrt", "--config", str(cfg),
                         "--max-depth", "2", "--out", str(out),
                         "--json", str(report))
        assert code == 0
        assert json.loads(report.read_text())["config"]["d_max"] == 2


    @pytest.mark.parametrize("flag, value", [("--stages", "7"), ("--eta", "0.9")])
    def test_boost_only_flag_with_hrt_is_config_error(self, tmp_path, capsys, flag, value):
        out = tmp_path / "m.json"
        code, text, err = run(capsys, "train", "sinc:n=100:sigma=0.02:seed=1", "hrt",
                              flag, value, "--out", str(out))
        assert code == 2
        assert err == f"error: train hrt does not read {flag}\n"
        assert text == ""
        assert not out.exists()

    def test_diagnostics_with_boost_is_config_error(self, tmp_path, capsys):
        out = tmp_path / "m.json"
        code, text, err = run(capsys, "train", "sinc:n=100:sigma=0.02:seed=1", "boost",
                              "--stages", "2", "--diagnostics", "--out", str(out))
        assert code == 2
        assert err == "error: train boost does not read --diagnostics\n"
        assert text == ""
        assert not out.exists()

    def test_config_file_that_is_not_utf8_is_config_error(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_bytes(b"\xff{}")
        out = tmp_path / "m.json"
        code, _, err = run(capsys, "train", SINC, "hrt", "--config", str(cfg), "--out", str(out))
        assert code == 2
        assert err.startswith(f"error: --config {cfg}: 'utf-8' codec can't decode byte 0xff")
        assert not out.exists()

    def test_config_file_that_is_not_an_object_is_config_error(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("[1, 2]")
        out = tmp_path / "m.json"
        code, _, err = run(capsys, "train", SINC, "hrt", "--config", str(cfg), "--out", str(out))
        assert (code, err) == (2, f"error: --config {cfg}: expected a JSON object\n")
        assert not out.exists()

    @pytest.mark.parametrize("max_depth", ["3", "0"])
    def test_flops_are_reported_in_both_modes(self, tmp_path, capsys, max_depth):
        report = tmp_path / "r.json"
        code, _, _ = run(capsys, "train", SINC, "hrt", "--max-depth", max_depth,
                         "--out", str(tmp_path / "m.json"), "--json", str(report))
        assert code == 0
        flops = json.loads(report.read_text())["flops"]
        assert flops["two"]["total_parameters"] == flops["diff"]["total_parameters"]
        two = flops["two"]["inference_flops_per_sample"]
        diff = flops["diff"]["inference_flops_per_sample"]
        # "diff" charges one dot product per split where "two" charges two.
        assert diff < two if max_depth != "0" else diff == two

    def test_diagnostics_adds_per_node_traces_to_the_report(self, tmp_path, capsys):
        reports = {}
        for extra in ([], ["--diagnostics"]):
            report = tmp_path / "r.json"
            code, _, _ = run(capsys, "train", "sinc:n=100:sigma=0.02:seed=1", "hrt",
                             "--out", str(tmp_path / "m.json"), "--json", str(report), *extra)
            assert code == 0
            reports[bool(extra)] = json.loads(report.read_text())
        assert "per_node_traces" not in reports[False]
        traces = reports[True]["per_node_traces"]
        # Fallback nodes keep their trace too, so there may be more traces than splits.
        assert traces and all(len(trace) >= 1 for trace in traces)
        assert all(isinstance(v, float) for trace in traces for v in trace)

    def test_boost_reads_stages_and_eta_from_the_config_file(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"stages": 2, "eta": 0.5, "max_depth": 1}))
        report = tmp_path / "r.json"
        code, _, _ = run(capsys, "train", SINC, "boost", "--config", str(cfg),
                         "--out", str(tmp_path / "m.json"), "--json", str(report))
        assert code == 0
        config = json.loads(report.read_text())["config"]
        assert (config["m_stages"], config["eta"], config["tree"]["d_max"]) == (2, 0.5, 1)


class TestUnreadConfigKeys:
    # Each fitting command with a --config key it does not read, named in the error.
    CASES = {
        "train": (["train", SINC, "hrt", "--out", "m.json"],
                  {"max-depth": 0, "stepsize": 5}, ["'max-depth'", "'stepsize'"]),
        "train-hrt-stages": (["train", SINC, "hrt", "--out", "m.json"],
                             {"max_depth": 1, "stages": 3}, ["'stages'"]),
        "ablate-step": (["ablate-step", SINC, "--mu-list", "0.05", "--repeats", "1"],
                        {"step": 0.5}, ["'step'"]),
        "trace-node": (["trace-node", SINC], {"max_depth": 2}, ["'max_depth'"]),
    }

    @pytest.mark.parametrize("case", CASES)
    def test_unread_key_is_a_config_error(self, tmp_path, monkeypatch, capsys, case):
        argv, doc, named = self.CASES[case]
        monkeypatch.chdir(tmp_path)
        (tmp_path / "cfg.json").write_text(json.dumps(doc))
        code, out, err = run(capsys, *argv, "--config", "cfg.json")
        assert code == 2
        assert err.startswith("error: --config cfg.json: this command does not read")
        assert all(key in err for key in named)
        assert out == ""
        assert not (tmp_path / "m.json").exists()

    # Each fitting command with a --config value of the wrong JSON type for its field.
    ARGV = {command: argv for command, (argv, _, _) in CASES.items()}
    ARGV["train-boost"] = ["train", SINC, "boost", "--out", "m.json"]
    MISTYPED = [
        ("train", "t_max", 2.7), ("train", "max_depth", True), ("train", "t_max", [1]),
        ("train", "max_depth", None), ("train", "step", {"a": 1}), ("train", "tau", "0.1"),
        ("train-boost", "stages", 2.5), ("train-boost", "eta", False),
        ("ablate-step", "t_max", 2.7), ("ablate-step", "n_min", None),
        ("ablate-step", "ridge", float("inf")),
        pytest.param("ablate-step", "tau", 10**400, id="ablate-step-tau-beyond-float"),
        ("trace-node", "t_max", [1]), ("trace-node", "step", {"a": 1}),
        ("trace-node", "min_subset", True), ("trace-node", "epsilon", float("nan")),
    ]

    @pytest.mark.parametrize("command, key, value", MISTYPED)
    def test_mistyped_value_is_a_config_error(self, tmp_path, monkeypatch, capsys,
                                              command, key, value):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "cfg.json").write_text(json.dumps({key: value}))
        code, out, err = run(capsys, *self.ARGV[command], "--config", "cfg.json")
        assert code == 2
        assert err.startswith(f"error: --config cfg.json: '{key}': expected a")
        assert f"got {json.dumps(value)}" in err
        assert out == ""
        assert not (tmp_path / "m.json").exists()


class TestEval:
    def test_eval_matches_train_echo(self, tmp_path, capsys):
        out = tmp_path / "m.json"
        train_report = tmp_path / "tr.json"
        run(capsys, "train", SINC, "hrt", "--out", str(out),
            "--json", str(train_report), "--seed", "5")
        eval_report = tmp_path / "ev.json"
        code, _, _ = run(capsys, "eval", str(out), SINC,
                         "--json", str(eval_report))
        assert code == 0
        trained = json.loads(train_report.read_text())
        evaluated = json.loads(eval_report.read_text())
        assert_shape(evaluated, dict.fromkeys(["model_path", "dataset", "complexity"]) | {
            "command": str, "eval": dict, "flops": dict})
        assert evaluated["command"] == "eval"
        assert_eval_and_flops(evaluated, "eval")
        assert evaluated["eval"] == trained["train_eval"]

    @pytest.mark.parametrize("kind, size", [("hrt", ["--max-depth", "4"]),
                                            ("boost", ["--stages", "5"])])
    def test_standardized_train_report_equals_eval(self, tmp_path, capsys, kind, size):
        # train scores the raw rows through the model's stored transform, as eval does.
        data = tmp_path / "f1.csv"
        run(capsys, "synth", "f1:n=300:sigma=0.1:seed=1", "--out", str(data))
        out, train_report, eval_report = (tmp_path / f for f in ("m.json", "tr.json", "ev.json"))
        run(capsys, "train", str(data), kind, *size, "--standardize", "--out", str(out),
            "--json", str(train_report))
        code, _, _ = run(capsys, "eval", str(out), str(data), "--json", str(eval_report))
        assert code == 0
        assert json.loads(eval_report.read_text())["eval"] == \
            json.loads(train_report.read_text())["train_eval"]

    def test_dimension_mismatch_exit_code(self, tmp_path, capsys):
        out = tmp_path / "m.json"
        run(capsys, "train", SINC, "hrt", "--out", str(out))
        code, _, _ = run(capsys, "eval", str(out), "f2:n=50:sigma=0:seed=1")
        assert code == 4

    def test_empty_dataset_exit_code(self, tmp_path, capsys):
        out = tmp_path / "m.json"
        run(capsys, "train", SINC, "hrt", "--out", str(out))
        empty = tmp_path / "empty.csv"
        empty.write_text("x,y\n")
        code, _, _ = run(capsys, "eval", str(out), str(empty))
        assert code == 3


class TestCorruptModelFile:
    def corrupt(self, tmp_path, capsys, damage):
        out = tmp_path / "m.json"
        run(capsys, "train", SINC, "hrt", "--out", str(out), "--max-depth", "2")
        doc = json.loads(out.read_text())
        damage(doc)
        out.write_text(json.dumps(doc))
        return run(capsys, "eval", str(out), SINC)

    def test_missing_root_is_data_error(self, tmp_path, capsys):
        code, _, err = self.corrupt(tmp_path, capsys, lambda doc: doc.pop("root"))
        assert code == 3
        assert err.startswith("error: model: missing 'root'")
        assert "Traceback" not in err

    @pytest.mark.parametrize("key, value, message", [
        ("format_version", 2, "error: unsupported format_version 2"),
        ("kind", "forest", "error: unknown model kind 'forest'"),
    ])
    def test_unreadable_envelope_is_data_error(self, tmp_path, capsys, key, value, message):
        code, _, err = self.corrupt(tmp_path, capsys, lambda doc: doc.__setitem__(key, value))
        assert code == 3
        assert err == message + "\n"

    def test_missing_left_child_is_data_error(self, tmp_path, capsys):
        code, _, err = self.corrupt(tmp_path, capsys,
                                    lambda doc: doc["root"]["internal"].pop("left"))
        assert code == 3
        assert err.startswith("error: root.internal: missing 'left'")

    def test_out_of_range_config_value_is_data_error(self, tmp_path, capsys):
        def bad_step(doc):
            doc["config"]["split"]["step"] = 5
        code, _, err = self.corrupt(tmp_path, capsys, bad_step)
        assert code == 3
        assert err.startswith("error: config: fixed step must lie in (0, 1]")

    @pytest.mark.parametrize("key, value, message", [
        ("eta", 5, "error: config: eta must lie in (0, 1]"),
        ("m_stages", "many", "error: config: m_stages must be an integer, got 'many'"),
        ("m_stages", "3", "error: config: m_stages must be an integer, got '3'"),
        ("m_stages", 2.7, "error: config: m_stages must be an integer, got 2.7"),
        ("m_stages", True, "error: config: m_stages must be an integer, got True"),
        ("eta", "0.1", "error: config: eta must be a finite number, got '0.1'"),
    ])
    def test_bad_boost_config_value_is_data_error(self, tmp_path, capsys, key, value, message):
        out = tmp_path / "m.json"
        run(capsys, "train", SINC, "boost", "--stages", "2", "--max-depth", "2",
            "--out", str(out))
        doc = json.loads(out.read_text())
        doc["config"][key] = value
        out.write_text(json.dumps(doc))
        code, _, err = run(capsys, "eval", str(out), SINC)
        assert code == 3
        assert err.startswith(message)

    def test_non_numeric_boost_f0_is_data_error(self, tmp_path, capsys):
        out = tmp_path / "m.json"
        run(capsys, "train", SINC, "boost", "--stages", "2", "--max-depth", "2",
            "--out", str(out))
        doc = json.loads(out.read_text())
        doc["f0"] = "zero"
        out.write_text(json.dumps(doc))
        code, _, err = run(capsys, "eval", str(out), SINC)
        assert code == 3
        assert err.startswith("error: f0: expected a finite number, got 'zero'")

    @pytest.mark.parametrize("key, value", [("fallback_feature", [1]),
                                            ("fallback_threshold", "x")])
    def test_bad_fallback_field_is_data_error(self, tmp_path, capsys, key, value):
        def damage(doc):
            body = doc["root"]["internal"]
            body.update(used_fallback=True, fallback_feature=0, fallback_threshold=0.5)
            body[key] = value

        code, _, err = self.corrupt(tmp_path, capsys, damage)
        assert code == 3
        assert err.startswith(f"error: root.internal.{key}: expected")
        assert "Traceback" not in err

    def test_bad_preprocess_block_is_data_error(self, tmp_path, capsys):
        out = tmp_path / "m.json"
        run(capsys, "train", "f2:n=100:sigma=0.05:seed=4", "hrt", "--max-depth", "2",
            "--standardize", "--out", str(out))
        doc = json.loads(out.read_text())
        doc["preprocess"]["standardize"]["scale"][0] = 0.0
        out.write_text(json.dumps(doc))
        code, text, err = run(capsys, "eval", str(out), "f2:n=50:sigma=0.05:seed=5")
        assert code == 3
        assert err.startswith("error: preprocess.standardize: expected")
        assert text == ""

    @pytest.mark.parametrize("damage", [
        lambda pre: pre.__setitem__("extra", {"a": 1}),
        lambda pre: pre["standardize"].__setitem__("junk", [1.0]),
    ], ids=["beside-standardize", "inside-standardize"])
    def test_unknown_preprocess_key_is_data_error(self, tmp_path, capsys, damage):
        out = tmp_path / "m.json"
        run(capsys, "train", "f2:n=100:sigma=0.05:seed=4", "hrt", "--max-depth", "2",
            "--standardize", "--out", str(out))
        doc = json.loads(out.read_text())
        damage(doc["preprocess"])
        out.write_text(json.dumps(doc))
        code, text, err = run(capsys, "eval", str(out), "f2:n=50:sigma=0.05:seed=5")
        assert code == 3
        assert err.startswith("error: preprocess") and "unknown" in err
        assert text == ""

    def test_unknown_node_key_is_data_error(self, tmp_path, capsys):
        code, text, err = self.corrupt(
            tmp_path, capsys, lambda doc: doc["root"]["internal"].update(gain=0.5))
        assert code == 3
        assert err == "error: root.internal: unknown 'gain'\n"
        assert text == ""

    def test_truncated_file_is_data_error(self, tmp_path, capsys):
        out = tmp_path / "m.json"
        run(capsys, "train", SINC, "hrt", "--out", str(out), "--max-depth", "2")
        out.write_text(out.read_text()[:100])
        code, _, err = run(capsys, "eval", str(out), SINC)
        assert code == 3
        assert err.startswith("error: model: not valid JSON")

    def test_file_that_is_not_utf8_is_data_error(self, tmp_path, capsys):
        out = tmp_path / "m.json"
        out.write_bytes(b"\xff\xfe{}")
        code, _, err = run(capsys, "eval", str(out), SINC)
        assert code == 3
        assert err.startswith("error: model: not UTF-8 text")

    def test_deeply_nested_file_is_data_error(self, tmp_path, capsys):
        out = tmp_path / "m.json"
        out.write_text(nested_document(1000))
        code, _, err = run(capsys, "eval", str(out), "sinc:n=50:sigma=0.02:seed=1")
        assert code == 3
        assert err == "error: model: nested too deeply\n"

    def test_truncated_theta_is_data_error(self, tmp_path, capsys):
        code, _, err = self.corrupt(tmp_path, capsys,
                                    lambda doc: doc["root"]["internal"]["theta1"].pop())
        assert code == 3
        assert err.startswith("error: root.internal.theta1: expected a list of 2")


class TestPredict:
    def test_predictions_to_file(self, tmp_path, capsys):
        out = tmp_path / "m.json"
        run(capsys, "train", SINC, "hrt", "--out", str(out))
        data = tmp_path / "d.csv"
        write_csv(gen_synthetic("sinc", 25, 0.0, seed=9), data)
        preds = tmp_path / "p.csv"
        code, _, _ = run(capsys, "predict", str(out), str(data),
                         "--target", "y", "--out", str(preds))
        assert code == 0
        lines = preds.read_text().strip().splitlines()
        assert lines[0] == "prediction"
        assert len(lines) == 26

    def test_synthetic_spec_rows(self, tmp_path, capsys):
        out, preds = tmp_path / "m.json", tmp_path / "p.csv"
        run(capsys, "train", "f1:n=300:sigma=0.1:seed=1", "hrt", "--max-depth", "3",
            "--out", str(out))
        code, _, _ = run(capsys, "predict", str(out), "f1:n=50:seed=2", "--out", str(preds))
        assert code == 0
        expected = predict_batch(load_model(out), gen_synthetic("f1", 50, 0.0, seed=2).X)
        assert preds.read_text() == "prediction\n" + "".join(f"{v:.17g}\n" for v in expected)

    def test_feature_only_csv(self, tmp_path, capsys):
        out = tmp_path / "m.json"
        run(capsys, "train", SINC, "hrt", "--out", str(out))
        data = tmp_path / "d.csv"
        data.write_text("x\n0.5\n-0.5\n")
        code, text, _ = run(capsys, "predict", str(out), str(data))
        assert code == 0
        assert len(text.strip().splitlines()) == 3


    @pytest.mark.parametrize("kind", ["hrt", "boost"])
    @pytest.mark.parametrize("command", ["eval", "predict"])
    def test_model_overflowing_on_a_finite_row_is_data_error(self, tmp_path, capsys, kind,
                                                              command):
        # The first side overflows to inf on the row (1e10, 1e10), and so does the leaf it picks.
        tree = {"internal": {"kind": "max", "theta1": [1e300, 0.0, 0.0],
                             "theta2": [0.0, 0.0, 0.0], "used_fallback": False,
                             "left": {"leaf": {"theta": [-1e300, -1e300, 0.0], "n_train": 1}},
                             "right": {"leaf": {"theta": [0.0, 0.0, 1.0], "n_train": 1}}}}
        out = tmp_path / "m.json"
        stages = ["--stages", "1"] if kind == "boost" else []
        run(capsys, "train", "f1:n=50:sigma=0:seed=1", kind, *stages, "--out", str(out))
        doc = json.loads(out.read_text())
        if kind == "hrt":
            doc["root"] = tree
        else:
            doc["learners"][0] = tree
        out.write_text(json.dumps(doc))
        data = tmp_path / "d.csv"
        data.write_text("x1,x2,y\n-1,0,1\n1e10,1e10,0\n")
        code, text, err = run(capsys, command, str(out), str(data), "--target", "y")
        assert code == 3
        assert err.startswith("error: the model predicts a NaN or infinite value")
        assert text == ""

    def test_row_standardized_to_infinity_is_data_error(self, tmp_path, capsys):
        out = tmp_path / "m.json"
        run(capsys, "train", SINC, "hrt", "--standardize", "--max-depth", "2", "--out", str(out))
        doc = json.loads(out.read_text())
        doc["preprocess"]["standardize"]["scale"][0] = 1e-300
        out.write_text(json.dumps(doc))
        data = tmp_path / "d.csv"
        data.write_text("x\n0.5\n1e300\n")
        code, text, err = run(capsys, "predict", str(out), str(data))  # overflows to inf
        assert code == 3
        assert err.startswith("error: feature matrix contains a NaN or infinite value")
        assert text == ""


class TestSynth:
    def test_synth_round_trip(self, tmp_path, capsys):
        csv = tmp_path / "s.csv"
        code, _, _ = run(capsys, "synth", "f3:n=40:sigma=0.1:seed=8",
                         "--out", str(csv))
        assert code == 0
        out = tmp_path / "m.json"
        code, _, _ = run(capsys, "train", str(csv), "--target", "y", "hrt",
                         "--max-depth", "1", "--out", str(out))
        assert code == 0

    @pytest.mark.parametrize("sigma", ["nan", "inf"])
    def test_non_finite_sigma_is_config_error(self, tmp_path, capsys, sigma):
        csv = tmp_path / "s.csv"
        code, _, err = run(capsys, "synth", f"f1:n=20:sigma={sigma}", "--out", str(csv))
        assert code == 2
        assert err == "error: sigma must be finite and non-negative\n"
        assert not csv.exists()


class TestAblateStep:
    def test_single_cell_matches_manual_replication(self, tmp_path, capsys):
        report = tmp_path / "a.json"
        code, _, _ = run(capsys, "ablate-step", SINC, "--mu-list", "0.05",
                         "--repeats", "1", "--seed", "13", "--json", str(report))
        assert code == 0
        payload = json.loads(report.read_text())
        assert_shape(payload, dict.fromkeys(["dataset", "train_fraction"]) | {
            "command": str, "repeats": int, "rows": list})
        assert payload["command"] == "ablate-step"
        for row in payload["rows"]:
            assert_shape(row, {"mu": (*NUMBER, str)} | dict.fromkeys(
                ["rmse", "leaves", "avg_iters", "fit_time_s", "fallbacks", "splits",
                 "fallback_rate_pct"], NUMBER))

        config = TreeConfig(d_max=6, n_min=5, tau_rmse=0.03,
                            split=SplitConfig(ridge_alpha=0.001, epsilon=0.03))
        manual = ablate_step_rows(SINC, [0.05], 1, config, seed=13)
        row = payload["rows"][0]
        assert row["rmse"] == manual[0]["rmse"]
        assert row["leaves"] == manual[0]["leaves"]
        assert row["splits"] == manual[0]["splits"]
        assert row["fallbacks"] == manual[0]["fallbacks"]

        # A CSV file is re-split per repeat, and --standardize fits the
        # transform on each training part.
        csv = tmp_path / "d.csv"
        write_csv(gen_synthetic("f1", 300, 0.1, seed=5), csv)
        code, _, _ = run(capsys, "ablate-step", str(csv), "--mu-list", "0.05",
                         "--repeats", "2", "--seed", "13", "--max-depth", "3",
                         "--standardize", "--json", str(report))
        assert code == 0
        fits = []
        for r in range(2):
            rep_seed = derive_seed(13, r, 4)
            train, test = split_train_test(load_csv(csv, "y"), 0.7, derive_seed(rep_seed, 0, 5))
            train, test, _ = standardize(train, test)
            model = build_tree(train.X, train.y, TreeConfig(d_max=3, split=SplitConfig(
                step=0.05, seed=derive_seed(rep_seed, 0, 6))))
            s = model.stats
            fits.append({"rmse": evaluate(predict_batch(model, test.X), test.y).rmse,
                         "leaves": s.n_leaves, "splits": s.n_splits, "fallbacks": s.n_fallbacks})
        row = json.loads(report.read_text())["rows"][0]
        for key in ("rmse", "leaves", "splits", "fallbacks"):
            assert row[key] == float(np.mean([fit[key] for fit in fits])), key

    def test_non_finite_predictions_are_a_data_error(self, capsys, monkeypatch):
        # ablate-step scores predict_batch's output directly; a NaN must not become its RMSE.
        monkeypatch.setattr("hingetree.cli.predict_batch", lambda model, X: np.full(len(X), np.nan))
        code, _, err = run(capsys, "ablate-step", SINC, "--mu-list", "0.05", "--repeats", "1",
                           "--max-depth", "1")
        assert code == 3
        assert "NaN or infinite" in err

    def test_fallback_rate_is_ratio_of_means(self, capsys, tmp_path):
        report = tmp_path / "a.json"
        code, _, _ = run(capsys, "ablate-step", SINC, "--mu-list", "0.05,auto",
                         "--repeats", "3", "--seed", "2", "--json", str(report))
        assert code == 0
        for row in json.loads(report.read_text())["rows"]:
            expected = (100.0 * row["fallbacks"] / row["splits"]
                        if row["splits"] else 0.0)
            assert row["fallback_rate_pct"] == pytest.approx(expected, rel=1e-12)

    def test_target_by_index_or_by_name(self, tmp_path, capsys):
        # Column 2 of a synthesized f1 file (x1, x2, y) is the target y.
        csv = tmp_path / "f1.csv"
        assert run(capsys, "synth", "f1:n=120:sigma=0.1:seed=1", "--out", str(csv))[0] == 0
        rows = {}
        for target in ("2", "y"):
            report = tmp_path / f"a-{target}.json"
            code, _, err = run(capsys, "ablate-step", str(csv), "--target", target,
                               "--mu-list", "0.05", "--repeats", "1", "--max-depth", "2",
                               "--json", str(report))
            assert (code, err) == (0, "")
            rows[target] = [{k: v for k, v in row.items() if k != "fit_time_s"}
                            for row in json.loads(report.read_text())["rows"]]
        assert rows["2"] == rows["y"]

    @pytest.mark.parametrize("options", [{"target": "x1"}, {"header": False}])
    def test_csv_options_with_a_synthetic_spec_rejected(self, options):
        # They used to be ignored, as parse_dataset_spec ignored them.
        with pytest.raises(ValueError, match=f"^{next(iter(options))}: the synthetic spec"):
            ablate_step_rows(SINC, [0.05], 1, TreeConfig(d_max=1), **options)

    def test_bad_mu_rejected(self, capsys):
        code, _, err = run(capsys, "ablate-step", SINC, "--mu-list", "0.05,nope",
                           "--repeats", "1")
        assert code == 2
        assert "--mu-list" in err

    @pytest.mark.parametrize("flags, message", [
        (("--mu-list", "0.05", "--repeats", "0"), "--repeats: must be at least 1"),
        (("--mu-list", " , ", "--repeats", "1"), "--mu-list: no step sizes given"),
    ], ids=["no-repeats", "no-steps"])
    def test_empty_grid_is_config_error(self, capsys, flags, message):
        code, out, err = run(capsys, "ablate-step", SINC, *flags)
        assert (code, out, err) == (2, "", f"error: {message}\n")


class TestBoostDiagnose:
    def test_all_stages_ok(self, tmp_path, capsys):
        out = tmp_path / "b.json"
        run(capsys, "train", SINC, "boost", "--stages", "6", "--out", str(out))
        report = tmp_path / "d.json"
        code, text, _ = run(capsys, "boost-diagnose", str(out),
                            "--json", str(report))
        assert code == 0
        payload = json.loads(report.read_text())
        assert_shape(payload, {"command": str, "model_path": None, "stages": list,
                               "all_ok": bool})
        assert payload["command"] == "boost-diagnose"
        for stage in payload["stages"]:
            assert_shape(stage, {"stage": int, "gamma": NUMBER, "loss": NUMBER,
                                 "bound_rhs": NUMBER, "ok": bool})
        assert payload["all_ok"] and len(payload["stages"]) == 6

    def test_zero_stage_model(self, tmp_path, capsys):
        out = tmp_path / "b.json"
        run(capsys, "train", SINC, "boost", "--stages", "0", "--out", str(out))
        code, _, _ = run(capsys, "boost-diagnose", str(out))
        assert code == 0

    def test_violation_detector_exits_five(self, tmp_path, capsys):
        out = tmp_path / "b.json"
        run(capsys, "train", SINC, "boost", "--stages", "4", "--out", str(out))
        doc = json.loads(out.read_text())
        doc["loss_trace"][2] = doc["loss_trace"][1] * 10.0  # corrupt one stage
        out.write_text(json.dumps(doc))
        code, _, _ = run(capsys, "boost-diagnose", str(out))
        assert code == 5

    def test_short_loss_trace_is_data_error(self, tmp_path, capsys):
        out = tmp_path / "b.json"
        run(capsys, "train", SINC, "boost", "--stages", "4", "--out", str(out))
        doc = json.loads(out.read_text())
        doc["loss_trace"].pop()
        out.write_text(json.dumps(doc))
        code, _, err = run(capsys, "boost-diagnose", str(out))
        assert code == 3
        assert err.startswith("error: loss_trace: expected 5 entries for 4 stages")
        assert "Traceback" not in err

    def test_non_finite_loss_is_data_error(self, tmp_path, capsys):
        # A NaN loss must not reach the bound check, where it reads as a violation.
        out = tmp_path / "b.json"
        run(capsys, "train", SINC, "boost", "--stages", "3", "--out", str(out))
        doc = json.loads(out.read_text())
        doc["loss_trace"][2] = float("nan")
        out.write_text(json.dumps(doc))
        code, _, err = run(capsys, "boost-diagnose", str(out))
        assert code == 3
        assert err.startswith("error: loss_trace[2]: expected a finite number")

    def test_legacy_file_without_gammas_is_config_error(self, tmp_path, capsys):
        out = tmp_path / "b.json"
        run(capsys, "train", SINC, "boost", "--stages", "3", "--out", str(out))
        doc = json.loads(out.read_text())
        doc["config"]["record_gamma"] = False
        doc["gamma_trace"] = []
        out.write_text(json.dumps(doc))
        code, _, err = run(capsys, "boost-diagnose", str(out))
        assert code == 2
        assert "gamma trace was not recorded" in err

    def test_tree_model_rejected(self, tmp_path, capsys):
        out = tmp_path / "m.json"
        run(capsys, "train", SINC, "hrt", "--out", str(out))
        code, _, _ = run(capsys, "boost-diagnose", str(out))
        assert code == 2


def leaves(doc, prefix=""):
    for key, value in doc.items():
        if isinstance(value, dict):
            yield from leaves(value, f"{prefix}{key}.")
        else:
            yield prefix + key, value


class TestReportText:
    # Each report command, after the commands that make its input files.
    TRAIN_HRT = ["train", SINC, "hrt", "--max-depth", "3", "--out", "m.json"]
    TRAIN_BOOST = ["train", SINC, "boost", "--stages", "3", "--out", "b.json"]
    CASES = {
        "train-hrt": [TRAIN_HRT + ["--diagnostics"]],
        "train-boost": [TRAIN_BOOST],
        "eval": [TRAIN_HRT, ["eval", "m.json", SINC]],
        "synth": [["synth", "f1:n=50:sigma=0.1:seed=1", "--out", "s.csv"]],
        "boost-diagnose": [TRAIN_BOOST, ["boost-diagnose", "b.json"]],
        "ablate-step": [["ablate-step", SINC, "--mu-list", "0.05,auto", "--repeats", "1"]],
        "predict-out": [["synth", "f1:n=50:sigma=0.1:seed=1", "--out", "s.csv"],
                        ["train", "s.csv", "hrt", "--max-depth", "2", "--out", "f.json"],
                        ["predict", "f.json", "s.csv", "--target", "y", "--out", "p.csv"]],
    }

    @pytest.mark.parametrize("case", CASES)
    def test_text_shows_every_value_of_the_json_report(self, tmp_path, monkeypatch,
                                                       capsys, case):
        monkeypatch.chdir(tmp_path)
        *setup, argv = self.CASES[case]
        for command in setup:
            assert run(capsys, *command)[0] == 0
        code, text, _ = run(capsys, *argv, "--json", "r.json")
        assert code == 0
        # The JSON file sorts its keys, so the text is compared key by key.
        payload = json.loads((tmp_path / "r.json").read_text())
        lines = text.splitlines()
        for key, value in payload.items():
            if key == "command":
                continue
            if isinstance(value, dict):
                (line,) = [line for line in lines if line.startswith(f"{key}: ")]
                shown = sorted(line[len(key) + 2:].split(" "))
                assert shown == sorted(f"{path}={_fmt(v)}" for path, v in leaves(value)), key
            elif isinstance(value, list) and value and isinstance(value[0], dict):
                start = lines.index(f"{key}:")
                header = lines[start + 1].split()
                table = [dict(zip(header, line.split())) for line in lines[start + 2:][:len(value)]]
                assert table == [{c: _fmt(v) for c, v in row.items()} for row in value], key
            else:
                assert f"{key}: {_fmt(value)}" in lines, key


class TestTraceNode:
    def test_abs_data_reaches_zero_objective(self, tmp_path, capsys):
        gen = np.random.default_rng(3)
        x = gen.uniform(-1, 1, 60)
        csv = tmp_path / "abs.csv"
        csv.write_text("x,y\n" + "".join(f"{v:.17g},{abs(v):.17g}\n" for v in x))
        code, text, _ = run(capsys, "trace-node", str(csv), "--target", "y",
                            "--step", "1", "--ridge", "0")
        assert code == 0
        lines = text.strip().splitlines()
        assert lines[0] == "iteration,objective,mu,s1_size,s2_size"
        final = float(lines[-1].split(",")[1])
        assert final <= 1e-10

    def test_auto_trace_strictly_decreases(self, capsys):
        code, text, _ = run(capsys, "trace-node", SINC, "--step", "auto")
        assert code == 0
        values = [float(line.split(",")[1])
                  for line in text.strip().splitlines()[1:]]
        assert all(b < a for a, b in zip(values, values[1:]))


class TestParsing:
    def test_unknown_command(self, capsys):
        assert run(capsys, "frobnicate")[0] == 2

    def test_missing_required_out(self, capsys):
        assert run(capsys, "train", SINC, "hrt")[0] == 2

    # Flags these commands never read are not registered.
    UNREAD_FLAGS = [(command, flag) for command in ("eval", "predict", "boost-diagnose", "synth")
                    for flag in ("--seed", "--config")]
    UNREAD_FLAGS += [("trace-node", flag) for flag in ("--max-depth", "--tau", "--n-min")]
    UNREAD_FLAGS += [("ablate-step", "--step"), ("train", "--flops-mode"), ("eval", "--flops-mode")]
    BASE_ARGV = {
        "train": ["train", SINC, "hrt", "--out", "m.json"],
        "eval": ["eval", "m.json", SINC],
        "predict": ["predict", "m.json", "d.csv"],
        "boost-diagnose": ["boost-diagnose", "b.json"],
        "synth": ["synth", SINC, "--out", "s.csv"],
        "trace-node": ["trace-node", SINC],
        "ablate-step": ["ablate-step", SINC, "--mu-list", "0.05"],
    }

    @pytest.mark.parametrize("command, flag", UNREAD_FLAGS)
    def test_unread_flag_is_rejected(self, tmp_path, monkeypatch, capsys, command, flag):
        monkeypatch.chdir(tmp_path)  # where a wrongly accepted command writes its output
        code, _, err = run(capsys, *self.BASE_ARGV[command], flag, "1")
        assert code == 2
        assert f"unrecognized arguments: {flag} 1" in err

    # --target and --no-header describe a CSV file, which a synthetic spec is not.
    SPEC = "f1:n=50:seed=1"
    SPEC_ARGV = {
        "train": ["train", SPEC, "hrt", "--out", "new.json"],
        "eval": ["eval", "m.json", SPEC],
        "predict": ["predict", "m.json", SPEC, "--out", "p.csv"],
        "trace-node": ["trace-node", SPEC],
        "ablate-step": ["ablate-step", SPEC, "--mu-list", "0.05", "--repeats", "1"],
    }

    @pytest.mark.parametrize("flags", [["--target", "x1"], ["--target", "y"], ["--no-header"],
                                       ["--target", "x2", "--no-header"]])
    @pytest.mark.parametrize("command", sorted(SPEC_ARGV))
    def test_csv_flag_with_a_synthetic_spec_is_config_error(self, tmp_path, monkeypatch, capsys,
                                                            command, flags):
        monkeypatch.chdir(tmp_path)
        run(capsys, "train", self.SPEC, "hrt", "--max-depth", "1", "--out", "m.json")
        code, text, err = run(capsys, *self.SPEC_ARGV[command], *flags)
        assert code == 2
        named = " and ".join(flag for flag in flags if flag.startswith("--"))
        assert err == f"error: {named}: the synthetic spec {self.SPEC!r} is not a CSV file\n"
        assert text == "" and os.listdir(tmp_path) == ["m.json"]

    @pytest.mark.parametrize("spec, message", [
        ("f1:n=abc", "synthetic spec 'f1:n=abc': n must be an integer, got 'abc'"),
        ("f1:n=5:n=400", "synthetic spec 'f1:n=5:n=400' gives 'n' more than once"),
    ], ids=["bad-value", "repeated-key"])
    def test_malformed_synthetic_spec_is_config_error(self, tmp_path, monkeypatch, capsys,
                                                      spec, message):
        monkeypatch.chdir(tmp_path)
        code, text, err = run(capsys, "train", spec, "hrt", "--out", "m.json")
        assert (code, text, err) == (2, "", f"error: {message}\n")
        assert os.listdir(tmp_path) == []


def run_python(*args, **env):
    src = os.path.dirname(os.path.dirname(os.path.abspath(hingetree.__file__)))
    env = dict(os.environ, PYTHONPATH=src, **env)
    return subprocess.run([sys.executable, *args], env=env, capture_output=True,
                          text=True, timeout=120)


class TestProcess:
    @pytest.mark.parametrize("flags, message", [
        ([], "training data too large: a feature's or the target's sum of squares overflows"),
        (["--standardize"], "feature 'x2' is too large to standardize: its mean or standard "
                            "deviation is not finite"),
    ])
    def test_data_too_large_for_the_arithmetic_is_data_error(self, tmp_path, flags, message):
        gen = np.random.default_rng(8)
        X = np.column_stack([gen.uniform(-1.0, 1.0, 200), gen.uniform(-1e160, 1e160, 200)])
        data, out = tmp_path / "big.csv", tmp_path / "m.json"
        write_csv(hingetree.Dataset(X=X, y=X[:, 0], feature_names=["x1", "x2"], provenance={}),
                  data)
        proc = run_python("-m", "hingetree.cli", "train", str(data), "hrt", *flags,
                          "--out", str(out))
        assert proc.returncode == 3
        assert proc.stderr == f"error: {message}\n"  # the error line alone, no NumPy warning
        assert not out.exists()

    def test_module_entry_prints_usage(self):
        proc = run_python("-m", "hingetree.cli", "--help")
        assert proc.returncode == 0
        assert proc.stdout.startswith("usage: hingetree")

    @pytest.mark.parametrize("level", ["debug", "error"])
    def test_debug_logging_adds_the_traceback(self, tmp_path, level):
        missing = tmp_path / "missing.json"
        proc = run_python("-m", "hingetree.cli", "eval", str(missing), "f1.csv", HRT_LOG=level)
        assert proc.returncode == 3
        assert proc.stderr.endswith(f"error: [Errno 2] No such file or directory: '{missing}'\n")
        assert proc.stderr.count("Traceback (most recent call last):") == (level == "debug")
        if level == "debug":
            assert proc.stderr.startswith("ERROR hingetree: data error\nTraceback")

    def test_import_loads_no_scipy(self):
        proc = run_python("-c", "import sys, hingetree, hingetree.cli; "
                                "print(sorted(m for m in sys.modules if m.startswith('scipy')))")
        assert proc.returncode == 0
        assert proc.stdout.strip() == "[]"
