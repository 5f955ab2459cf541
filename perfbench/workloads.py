"""The four benchmark workloads.

Each workload makes its inputs from the seed alone (``inputs``), prepares
what its operation needs (``setup``) and runs one closed-loop operation
(``op``) that times its own parts and checks its outputs.  Each timed part
runs inside ``ref.bracket`` (see speed.py) and its time is reported at the
reference speed.  A check that does not hold raises :class:`CheckFailed`.
Functions of the program are looked up on their modules at call time, so a
traced run sees the calls.
"""
from __future__ import annotations

import contextlib
import io
import json
import os
import subprocess
import sys
import time

import numpy as np

from hingetree import boost, cli, datasets, metrics, serialize, tree
from hingetree.split import SplitConfig

import widedata

# Held-out rows predicted one at a time in every operation, in SCALAR_PASSES
# passes: the latency sample and the scalar-vs-batch bit check.  A row's
# latency is its fastest pass, which removes most of the interference of
# other tenants on a shared host; the percentiles are taken across rows.
SCALAR_ROWS = 1000
SCALAR_PASSES = 5

# `python -m hingetree.cli` does nothing (cli.py has no __main__ guard) and
# the console script is not installed, so the CLI is launched through main().
CLI_LAUNCH = "import sys; from hingetree.cli import main; sys.exit(main(sys.argv[1:]))"
CLI_TIMEOUT_S = 120


class CheckFailed(Exception):
    """An operation's output check did not hold."""


def _timed(fn, *args):
    t0 = time.perf_counter()
    result = fn(*args)
    return result, time.perf_counter() - t0


def _fastest(repeats: int, fn, *args):
    """``_timed`` repeated; the last result and the fastest time."""
    best = float("inf")
    for _ in range(repeats):
        result, seconds = _timed(fn, *args)
        best = min(best, seconds)
    return result, best


def same_bits(a, b) -> bool:
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def _quality(pred, y) -> dict:
    err = np.asarray(pred) - y
    rmse = float(np.sqrt(np.mean(err ** 2)))
    spread = float(np.std(y))
    if not rmse < spread:  # also false for NaN
        raise CheckFailed(f"held-out RMSE {rmse} does not beat the constant predictor {spread}")
    return {"test_median_abs_err": float(np.median(np.abs(err))), "test_rmse": rmse}


def _scalar(predict_one, model, X, batch, rows: int = SCALAR_ROWS) -> list[float]:
    """Per-row scalar latency (us) of the first ``rows`` rows of ``X``.

    Every pass must match the batch predictions ``batch`` bit for bit.
    """
    X, batch = X[:rows], batch[:rows]
    best = np.full(X.shape[0], np.inf)
    out = np.empty(X.shape[0])
    clock = time.perf_counter_ns
    for _ in range(SCALAR_PASSES):
        for i, row in enumerate(X):
            t0 = clock()
            out[i] = predict_one(model, row)
            best[i] = min(best[i], (clock() - t0) / 1e3)
        if not same_bits(out, batch):
            raise CheckFailed("scalar predictions differ from batch predictions")
    return best.tolist()


def _f1_inputs(seed: int) -> dict:
    ds = datasets.gen_synthetic("f1", 2500, 0.1, seed)
    train, test = datasets.split_train_test(ds, 0.8, seed)
    return {
        "X": train.X, "y": train.y, "X_test": test.X, "y_test": test.y,
        "provenance": {"generator": "hingetree.gen_synthetic", "name": "f1", "n": 2500,
                       "d": 2, "sigma": 0.1, "seed": seed,
                       "split": {"train_fraction": 0.8, "seed": seed}},
    }


class _FitF1:
    """Fit on the 2,000 f1 training rows, then predict the 500 held-out rows."""

    setups = 9
    scalar_rows = 500  # all held-out rows

    def inputs(self, seed: int) -> dict:
        return _f1_inputs(seed)

    def setup(self, seed: int, workdir: str) -> dict:
        return self.inputs(seed)

    def op(self, s: dict, ref) -> dict:
        X_test = s["X_test"]
        (model, fit_s), k_fit = ref.bracket(_timed, self.fit, s["X"], s["y"])
        (pred, batch_s), k_batch = ref.bracket(_fastest, self.batch_repeats, self.predict_batch,
                                               model, X_test, fastest=self.batch_repeats > 1)
        one_us, k_one = ref.bracket(_scalar, self.predict_one(), model, X_test, pred,
                                    self.scalar_rows, fastest=True)
        self.check_model(model)
        reference = s.setdefault("reference", pred)
        if not same_bits(pred, reference):
            raise CheckFailed("a refit on the same inputs predicted different values")
        return {"fit_s": fit_s * k_fit, "rows_per_s": X_test.shape[0] / (batch_s * k_batch),
                "one_us": [t * k_one for t in one_us], "speed": [k_fit, k_batch, k_one],
                **_quality(pred, s["y_test"])}

    def check_model(self, model) -> None:
        pass


class TreeF1(_FitF1):
    name = "tree-f1"
    batch_repeats = 5  # one batch takes ~10 ms: time the fastest of 5

    def fit(self, X, y):
        return tree.build_tree(X, y, tree.TreeConfig())

    def predict_batch(self, model, X):
        return tree.predict_batch(model, X)

    def predict_one(self):
        return tree.predict


class BoostF1(_FitF1):
    name = "boost-f1"
    batch_repeats = 1
    scalar_rows = 200  # each call walks 20 trees

    def fit(self, X, y):
        return boost.fit_boost(X, y, boost.BoostConfig(m_stages=20))

    def predict_batch(self, model, X):
        return boost.predict_boost_batch(model, X)

    def predict_one(self):
        return boost.predict_boost

    def check_model(self, model) -> None:
        bad = [c.stage for c in boost.gamma_bound_check(model) if not c.ok]
        if bad:
            raise CheckFailed(f"boost stages {bad} break the gamma risk bound")


class ServeF2:
    """Serve a saved-and-reloaded f2 tree: one 20,000-row batch, then single rows."""

    name = "serve-f2"
    setups = 12

    def inputs(self, seed: int) -> dict:
        train = datasets.gen_synthetic("f2", 20000, 0.1, seed + 1)
        query = datasets.gen_synthetic("f2", 20000, 0.1, seed + 2)
        prov = {"generator": "hingetree.gen_synthetic", "name": "f2", "n": 20000, "d": 2,
                "sigma": 0.1}
        return {"X": train.X, "y": train.y, "X_test": query.X, "y_test": query.y,
                "provenance": {"train": {**prov, "seed": seed + 1},
                               "query": {**prov, "seed": seed + 2}}}

    def setup(self, seed: int, workdir: str) -> dict:
        s = self.inputs(seed)
        t0 = time.perf_counter()
        s["fitted"] = tree.build_tree(s["X"], s["y"],
                                      tree.TreeConfig(split=SplitConfig(step="auto")))
        s["fit_s"] = time.perf_counter() - t0
        s["model"] = serialize.loads_model(serialize.dumps_model(s["fitted"]))
        return s

    def op(self, s: dict, ref) -> dict:
        model = s["model"]
        X_test = s["X_test"]
        (pred, batch_s), k_batch = ref.bracket(_timed, tree.predict_batch, model, X_test)
        one_us, k_one = ref.bracket(_scalar, tree.predict, model, X_test, pred, fastest=True)
        if "expected" not in s:
            s["expected"] = tree.predict_batch(s["fitted"], X_test)
        if not same_bits(pred, s["expected"]):
            raise CheckFailed("predictions changed across the save/load round-trip")
        return {"rows_per_s": X_test.shape[0] / (batch_s * k_batch),
                "one_us": [t * k_one for t in one_us], "speed": [k_batch, k_one],
                **_quality(pred, s["y_test"])}


class CliWide:
    """One `train` process and one `eval` process on d=16 CSV files.

    Training uses the auto step: under the fixed default step the number of
    Newton iterations on this data swings 4x from seed to seed (stalled
    splits fall back to median splits), which `tree-f1` already measures.
    """

    name = "cli-wide"
    setups = 3

    def inputs(self, seed: int) -> dict:
        X, y, X_test, y_test, prov = widedata.wide_hinge(4000, 4000, 16, 0.1, seed)
        return {"X": X, "y": y, "X_test": X_test, "y_test": y_test, "provenance": prov}

    def setup(self, seed: int, workdir: str) -> dict:
        s = self.inputs(seed)
        paths = {k: os.path.join(workdir, f) for k, f in (
            ("train", "train.csv"), ("test", "test.csv"), ("model", "model.json"),
            ("train_json", "train-report.json"), ("eval_json", "eval-report.json"))}
        widedata.write_csv(paths["train"], s["X"], s["y"])
        widedata.write_csv(paths["test"], s["X_test"], s["y_test"])
        s["paths"] = paths
        s["argv"] = {
            "train": ["train", paths["train"], "hrt", "--step", "auto", "--out", paths["model"],
                      "--json", paths["train_json"]],
            "eval": ["eval", paths["model"], paths["test"], "--json", paths["eval_json"]],
        }
        src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        s["env"] = env
        s["workdir"] = workdir
        return s

    def _clear_outputs(self, s: dict) -> None:
        for key in ("model", "train_json", "eval_json"):
            with contextlib.suppress(FileNotFoundError):
                os.remove(s["paths"][key])

    def _process(self, s: dict, command: str) -> float:
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", CLI_LAUNCH, *s["argv"][command]],
                              cwd=s["workdir"], env=s["env"], capture_output=True,
                              text=True, timeout=CLI_TIMEOUT_S)
        wall = time.perf_counter() - t0
        if proc.returncode != 0:
            raise CheckFailed(f"`{command}` exited {proc.returncode}: {proc.stderr.strip()}")
        return wall

    def op(self, s: dict, ref) -> dict:
        self._clear_outputs(s)
        train_s, k_train = ref.bracket(self._process, s, "train")
        eval_s, k_eval = ref.bracket(self._process, s, "eval")
        checked = self.check(s, ref)
        return {"fit_s": train_s * k_train, "rows_per_s": s["X_test"].shape[0] / (eval_s * k_eval),
                "speed": [k_train, k_eval, *checked.pop("speed")], **checked}

    def inprocess(self, s: dict) -> dict:
        """The same two commands through ``hingetree.cli.main`` in this process."""
        self._clear_outputs(s)
        times = {}
        for command in ("train", "eval"):
            t0 = time.perf_counter()
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main(list(s["argv"][command]))
            times[f"{command}_s"] = time.perf_counter() - t0
            if code != 0:
                raise CheckFailed(f"in-process `{command}` returned {code}")
        return times

    def check(self, s: dict, ref) -> dict:
        paths = s["paths"]
        for key in ("model", "train_json", "eval_json"):
            if not os.path.isfile(paths[key]):
                raise CheckFailed(f"the CLI wrote no {key} file")
        with open(paths["eval_json"], encoding="utf-8") as fh:
            reported = json.load(fh)["eval"]["rmse"]
        model = serialize.load_model(paths["model"])
        X_test = s["X_test"]
        pred = tree.predict_batch(model, X_test)
        rmse = metrics.evaluate(pred, s["y_test"]).rmse
        if reported != rmse:
            raise CheckFailed(f"`eval --json` RMSE {reported!r} != in-process RMSE {rmse!r}")
        one_us, k_one = ref.bracket(_scalar, tree.predict, model, X_test, pred, fastest=True)
        return {"one_us": [t * k_one for t in one_us], "speed": [k_one],
                **_quality(pred, s["y_test"])}


WORKLOADS = {w.name: w for w in (TreeF1(), BoostF1(), ServeF2(), CliWide())}
