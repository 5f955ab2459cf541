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
    default_boost_tree_config,
    gen_synthetic,
    load_model,
    write_csv,
)
from hingetree.cli import ablate_step_rows, main

NUMBER = (int, float)
EVAL = {"rmse": NUMBER, "mae": NUMBER, "r2": (int, float, type(None)), "n": int,
        "r2_defined": bool}
FLOPS = {"mode": str, "inference_flops_per_sample": NUMBER, "total_parameters": int}


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
    assert_shape(report["flops"], FLOPS)
    assert report["flops"]["mode"] in ("two", "diff")


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
        assert "train: rmse=" in text
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

    def test_boost_training(self, tmp_path, capsys):
        out = tmp_path / "b.json"
        code, text, _ = run(capsys, "train", SINC, "boost",
                            "--stages", "8", "--eta", "0.2", "--out", str(out))
        assert code == 0
        assert "boost: stages=8" in text
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
        ("m_stages", "many", "error: config: invalid literal for int()"),
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
        assert err.startswith("error: f0: could not convert string to float")

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

    def test_truncated_file_is_data_error(self, tmp_path, capsys):
        out = tmp_path / "m.json"
        run(capsys, "train", SINC, "hrt", "--out", str(out), "--max-depth", "2")
        out.write_text(out.read_text()[:100])
        code, _, err = run(capsys, "eval", str(out), SINC)
        assert code == 3
        assert err.startswith("error: model: not valid JSON")

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

    def test_feature_only_csv(self, tmp_path, capsys):
        out = tmp_path / "m.json"
        run(capsys, "train", SINC, "hrt", "--out", str(out))
        data = tmp_path / "d.csv"
        data.write_text("x\n0.5\n-0.5\n")
        code, text, _ = run(capsys, "predict", str(out), str(data))
        assert code == 0
        assert len(text.strip().splitlines()) == 3


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

    def test_fallback_rate_is_ratio_of_means(self, capsys, tmp_path):
        report = tmp_path / "a.json"
        code, _, _ = run(capsys, "ablate-step", SINC, "--mu-list", "0.05,auto",
                         "--repeats", "3", "--seed", "2", "--json", str(report))
        assert code == 0
        for row in json.loads(report.read_text())["rows"]:
            expected = (100.0 * row["fallbacks"] / row["splits"]
                        if row["splits"] else 0.0)
            assert row["fallback_rate_pct"] == pytest.approx(expected, rel=1e-12)

    def test_bad_mu_rejected(self, capsys):
        code, _, err = run(capsys, "ablate-step", SINC, "--mu-list", "0.05,nope",
                           "--repeats", "1")
        assert code == 2
        assert "--mu-list" in err


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
    UNREAD_FLAGS += [("ablate-step", "--step")]
    BASE_ARGV = {
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


def run_python(*args):
    src = os.path.dirname(os.path.dirname(os.path.abspath(hingetree.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    return subprocess.run([sys.executable, *args], env=env, capture_output=True,
                          text=True, timeout=120)


class TestProcess:
    def test_module_entry_prints_usage(self):
        proc = run_python("-m", "hingetree.cli", "--help")
        assert proc.returncode == 0
        assert proc.stdout.startswith("usage: hingetree")

    def test_import_loads_no_scipy(self):
        proc = run_python("-c", "import sys, hingetree, hingetree.cli; "
                                "print(sorted(m for m in sys.modules if m.startswith('scipy')))")
        assert proc.returncode == 0
        assert proc.stdout.strip() == "[]"
