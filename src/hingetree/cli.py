"""Command-line front end: train, eval, predict, ablate-step, boost-diagnose, trace-node, synth.

The fitting commands (train, ablate-step, trace-node) take --seed and
--config, and fit the same bits for the same inputs, flags and seed.  One
table, ``_HYPER``, maps each hyperparameter flag to its config field; a
flag's value wins over its --config key (the flag's destination:
``max_depth``, ``step``, ...), which wins over the config dataclass
default.  A --config key the command does not read is a configuration
error, and so is a value of the wrong JSON type (a boolean, null, list or
object, or a non-integral number for an integer field), or ``--stages`` or
``--eta`` given to ``train ... hrt``.
Exit codes: 0 success, 2 configuration error, 3 data error (a NaN or
infinite value included, also one that standardizing a row to predict
produces) or corrupt model file (any value that :mod:`hingetree.serialize`
rejects on load, ``preprocess`` included), 4 model/data dimension
mismatch, 5 per-stage bound violation (boost-diagnose only).  The HRT_LOG
environment variable ({error|info|debug}, default error) controls
verbosity; debug additionally prints tracebacks.
"""
from __future__ import annotations

import argparse
import json
import logging
import math
import os
import sys
import time
from dataclasses import asdict, fields, is_dataclass, replace

import numpy as np

from .boost import (BoostConfig, BoostModel, default_boost_tree_config, fit_boost,
                    gamma_bound_check, predict_boost_batch)
from .datasets import (
    Dataset,
    StandardizeTransform,
    gen_synthetic,
    load_features,
    parse_dataset_spec,
    split_train_test,
    standardize,
    write_csv,
)
from .errors import DimensionMismatch, HingeTreeError
from .metrics import boost_inference_flops, complexity_report, evaluate, hrt_inference_flops
from .serialize import load_model, save_model
from .split import SplitConfig, select_split
from .tree import TreeConfig, build_tree, derive_seed, predict_batch

log = logging.getLogger("hingetree")


class CliConfigError(Exception):
    """Bad flag or configuration-file value; the message names the offender."""


def _setup_logging() -> None:
    level = os.environ.get("HRT_LOG", "error").lower()
    chosen = {"error": logging.ERROR, "info": logging.INFO,
              "debug": logging.DEBUG}.get(level, logging.ERROR)
    logging.basicConfig(level=chosen, format="%(levelname)s %(name)s: %(message)s")
    log.setLevel(chosen)


def _fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def _load_config_file(path: str | None, keys: tuple[str, ...]) -> dict:
    """The ``--config`` file's object, whose keys must all be among ``keys``."""
    if path is None:
        return {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise CliConfigError(f"--config {path}: {exc}") from None
    if not isinstance(doc, dict):
        raise CliConfigError(f"--config {path}: expected a JSON object")
    unread = [k for k in doc if k not in keys]
    if unread:
        raise CliConfigError(f"--config {path}: this command does not read "
                             f"{', '.join(map(repr, unread))}; it reads {', '.join(keys)}")
    return doc


# Hyperparameter flags: dest -> (flag, config field, type, help).  The dest is
# also the flag's --config key.  A str flag is a step: 'auto' or a number.
_HYPER = {
    "max_depth": ("--max-depth", "d_max", int, "maximum tree depth"),
    "ridge": ("--ridge", "ridge_alpha", float, "ridge penalty on weights (bias excluded)"),
    "step": ("--step", "step", str, "damping factor in (0,1] or 'auto'"),
    "tau": ("--tau", "tau_rmse", float, "leaf RMSE threshold"),
    "n_min": ("--n-min", "n_min", int, "minimum samples to split a node"),
    "t_max": ("--t-max", "t_max", int, "maximum split iterations"),
    "epsilon": ("--epsilon", "epsilon", float, "convergence tolerance on parameter change"),
    "min_subset": ("--min-subset", "min_subset", int, "minimum side size refit during a split step"),
    "stages": ("--stages", "m_stages", int, "number of boosting stages"),
    "eta": ("--eta", "eta", float, "learning rate in (0,1]"),
}
# The hyperparameters each fitting command reads, as flags and as --config
# keys.  ablate-step sets the step of each run itself.
_SPLIT_KEYS = ("ridge", "step", "t_max", "epsilon", "min_subset")
_TREE_KEYS = ("max_depth", "ridge", "step", "tau", "n_min", "t_max", "epsilon", "min_subset")
_BOOST_KEYS = (*_TREE_KEYS, "stages", "eta")
_ABLATE_KEYS = tuple(k for k in _TREE_KEYS if k != "step")


def _typed(kind, value, where: str):
    """``value`` as ``kind``: an int or finite float from a number, or a step for ``str``.

    A boolean, null, list, object or string (outside a step), or a
    non-integral number for an int, is a configuration error naming ``where``.
    """
    if kind is str:
        return _parse_step(value, where)
    try:
        ok = (not isinstance(value, bool) and isinstance(value, (int, float))
              and (float(value).is_integer() if kind is int else math.isfinite(value)))
    except OverflowError:  # an integer beyond the float range
        ok = kind is int
    if not ok:
        expected = "an integer" if kind is int else "a finite number"
        raise CliConfigError(f"{where}: expected {expected}, got {json.dumps(value)}")
    return kind(value)


def _parse_step(raw, where: str = "--step"):
    if isinstance(raw, str):
        token = raw.strip().lower()
        if token == "auto":
            return "auto"
        try:
            raw = float(token)
        except ValueError:
            raise CliConfigError(f"{where}: expected a number in (0, 1] or 'auto', "
                                 f"got {raw!r}") from None
    value = _typed(float, raw, where)
    if not 0.0 < value <= 1.0:
        raise CliConfigError(f"{where}: damping factor {value} outside (0, 1]")
    return value


def _configure(config, args, file_cfg: dict, **fixed):
    """``config`` with each flag's value, else its ``--config`` value, and ``fixed``.

    Values go to the config field that :data:`_HYPER` names, and each
    ``fixed`` item to the field of its name, at whichever level holds it.
    Nested configs are rebuilt first, each once, so that ``__post_init__``
    checks fields that depend on each other (``n_min`` and the split's
    ``min_subset``) together; it raises ``ValueError`` naming the field.
    """
    names = {f.name for f in fields(config)}
    changes = {name: _configure(getattr(config, name), args, file_cfg, **fixed)
               for name in names if is_dataclass(getattr(config, name))}
    for dest, (flag, name, kind, _) in _HYPER.items():
        if name not in names:
            continue
        if getattr(args, dest, None) is not None:
            changes[name] = _typed(kind, getattr(args, dest), flag)
        elif dest in file_cfg:
            changes[name] = _typed(kind, file_cfg[dest], f"--config {args.config}: {dest!r}")
    changes.update((name, value) for name, value in fixed.items() if name in names)
    return replace(config, **changes)


def _dataset(args) -> Dataset:
    target = getattr(args, "target", None)
    header = not getattr(args, "no_header", False)
    if target is None:
        target = "y"
    elif target.isdigit() or (target.startswith("-") and target[1:].isdigit()):
        target = int(target)
    return parse_dataset_spec(args.dataset, target=target, header=header)


def _predictions(model, X: np.ndarray) -> np.ndarray:
    if model.preprocess is not None:
        X = StandardizeTransform.from_dict(model.preprocess["standardize"]).apply(X)
    if isinstance(model, BoostModel):
        return predict_boost_batch(model, X)
    return predict_batch(model, X)


def _flops_report(model, mode: str) -> dict:
    if isinstance(model, BoostModel):
        report = boost_inference_flops(model, mode)
    else:
        report = hrt_inference_flops(model, mode)
    return {
        "mode": mode,
        "inference_flops_per_sample": report.inference_flops_per_sample,
        "total_parameters": report.total_parameters,
    }


def _eval_dict(report) -> dict:
    return {
        "rmse": report.rmse,
        "mae": report.mae,
        "r2": report.r2 if report.r2_defined else None,
        "n": report.n,
        "r2_defined": report.r2_defined,
    }


def _write_json(args, payload: dict) -> None:
    path = getattr(args, "json", None)
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")


def _print_eval(label: str, report) -> None:
    r2 = _fmt(report.r2) if report.r2_defined else "undefined"
    print(f"{label}: rmse={_fmt(report.rmse)} mae={_fmt(report.mae)} "
          f"r2={r2} n={report.n}")


def _print_flops(flops: dict) -> None:
    print(f"flops/sample={_fmt(flops['inference_flops_per_sample'])} "
          f"parameters={flops['total_parameters']} (mode={flops['mode']})")


def cmd_train(args) -> int:
    hrt = args.kind == "hrt"
    keys = _TREE_KEYS if hrt else _BOOST_KEYS
    unread = [_HYPER[k][0] for k in _BOOST_KEYS if k not in keys and getattr(args, k) is not None]
    if unread:
        raise CliConfigError(f"train {args.kind} does not read {', '.join(unread)}")
    file_cfg = _load_config_file(args.config, keys)
    ds = _dataset(args)

    preprocess = None
    if args.standardize:
        ds, _, transform = standardize(ds)
        preprocess = {"standardize": transform.to_dict()}

    base = TreeConfig() if hrt else BoostConfig(tree=default_boost_tree_config())
    config = _configure(base, args, file_cfg, seed=args.seed, collect_traces=args.diagnostics)
    config_doc = asdict(config)
    started = time.perf_counter()
    model = build_tree(ds.X, ds.y, config) if hrt else fit_boost(ds.X, ds.y, config)
    fit_time = time.perf_counter() - started
    model.preprocess = preprocess

    report = evaluate(_predictions(model, ds.X), ds.y)
    flops = _flops_report(model, args.flops_mode)
    complexity = complexity_report(model)
    save_model(model, args.out)

    payload = {
        "command": "train",
        "dataset": {"spec": args.dataset, "n": ds.n, "d": ds.d},
        "model_kind": args.kind,
        "config": config_doc,
        "seed": args.seed,
        "standardized": bool(args.standardize),
        "train_eval": _eval_dict(report),
        "complexity": complexity,
        "flops": flops,
        "fit_time_s": fit_time,
        "model_path": args.out,
    }
    if hrt:
        s = model.stats
        payload["stats"] = {
            "n_leaves": s.n_leaves,
            "depth": s.depth,
            "n_splits": s.n_splits,
            "n_fallbacks": s.n_fallbacks,
            "total_split_iterations": s.total_split_iterations,
            "total_variant_iterations": s.total_variant_iterations,
            "fallback_rate": s.fallback_rate,
        }
        if args.diagnostics and s.per_node_traces is not None:
            payload["per_node_traces"] = s.per_node_traces
        summary = (f"tree: depth={s.depth} leaves={s.n_leaves} splits={s.n_splits} "
                   f"fallbacks={s.n_fallbacks} fallback_rate={_fmt(100 * s.fallback_rate)}%")
    else:
        payload["stats"] = {
            "stages_retained": len(model.learners),
            "stages_recorded": len(model.stage_retained),
            "final_loss": model.loss_trace[-1],
        }
        summary = (f"boost: stages={len(model.learners)} "
                   f"total_leaves={complexity['total_leaves']} "
                   f"final_loss={_fmt(model.loss_trace[-1])}")

    print(f"dataset: {args.dataset} (n={ds.n}, d={ds.d})")
    print(f"model: {args.kind}  seed={args.seed}")
    print(f"config: {json.dumps(config_doc, sort_keys=True)}")
    _print_eval("train", report)
    print(summary)
    _print_flops(flops)
    print(f"fit_time_s={_fmt(fit_time)} (training only)")
    print(f"wrote model to {args.out}")
    _write_json(args, payload)
    return 0


def cmd_eval(args) -> int:
    model = load_model(args.model)
    ds = _dataset(args)
    if ds.d != model.d:
        raise DimensionMismatch(f"model expects {model.d} features, data has {ds.d}")
    report = evaluate(_predictions(model, ds.X), ds.y)
    flops = _flops_report(model, args.flops_mode)
    complexity = complexity_report(model)

    print(f"model: {args.model}")
    print(f"dataset: {args.dataset} (n={ds.n}, d={ds.d})")
    _print_eval("eval", report)
    print(f"complexity: {json.dumps(complexity, sort_keys=True)}")
    _print_flops(flops)
    _write_json(args, {
        "command": "eval",
        "model_path": args.model,
        "dataset": {"spec": args.dataset, "n": ds.n, "d": ds.d},
        "eval": _eval_dict(report),
        "complexity": complexity,
        "flops": flops,
    })
    return 0


def cmd_predict(args) -> int:
    model = load_model(args.model)
    if args.target is not None:
        ds = _dataset(args)
        X, names = ds.X, ds.feature_names
    else:
        X, names = load_features(args.dataset, header=not args.no_header)
    if X.shape[1] != model.d:
        raise DimensionMismatch(f"model expects {model.d} features, data has {X.shape[1]}")
    preds = _predictions(model, X)
    lines = ["prediction"] + [f"{v:.17g}" for v in preds]
    text = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
        print(f"wrote {preds.shape[0]} predictions to {args.out}")
    else:
        sys.stdout.write(text)
    _write_json(args, {"command": "predict", "n": int(preds.shape[0]),
                       "out": args.out})
    return 0


def ablate_step_rows(dataset_spec: str, mu_values, repeats: int,
                     config: TreeConfig, train_fraction: float = 0.7,
                     seed: int = 0, use_standardize: bool = False,
                     target="y", header: bool = True):
    """Train `repeats` models per step-size value and average the metrics.

    Each run fits ``config`` with the step under test.  Synthetic datasets
    are regenerated per repeat with a derived seed so every step size sees
    the same sequence of datasets, train/test splits and split seeds
    (:func:`~hingetree.tree.derive_seed` slots 4, 5 and 6); file datasets
    are re-split only.  The fallback rate is the ratio of mean fallbacks to
    mean splits, as a percentage.
    """
    ds0 = parse_dataset_spec(dataset_spec, target=target, header=header)
    synthetic = ds0.provenance.get("kind") == "synthetic"
    per_mu = {i: [] for i in range(len(mu_values))}
    for r in range(repeats):
        rep_seed = derive_seed(seed, r, 4)
        if synthetic:
            prov = ds0.provenance
            ds = gen_synthetic(prov["name"], prov["n"], prov["sigma"], rep_seed)
        else:
            ds = ds0
        train, test = split_train_test(ds, train_fraction,
                                       derive_seed(rep_seed, 0, 5))
        if use_standardize:
            train, test, _ = standardize(train, test)
        for i, mu in enumerate(mu_values):
            run_config = replace(config, split=replace(config.split, step=mu,
                                                       seed=derive_seed(rep_seed, 0, 6)))
            started = time.perf_counter()
            model = build_tree(train.X, train.y, run_config)
            fit_time = time.perf_counter() - started
            report = evaluate(predict_batch(model, test.X), test.y)
            s = model.stats
            iters = (s.total_variant_iterations / s.n_splits) if s.n_splits else 0.0
            per_mu[i].append({
                "rmse": report.rmse,
                "leaves": s.n_leaves,
                "avg_iters": iters,
                "fit_time_s": fit_time,
                "fallbacks": s.n_fallbacks,
                "splits": s.n_splits,
            })
    rows = []
    for i, mu in enumerate(mu_values):
        runs = per_mu[i]
        mean = {k: float(np.mean([run[k] for run in runs]))
                for k in ("rmse", "leaves", "avg_iters", "fit_time_s",
                          "fallbacks", "splits")}
        rate = 100.0 * mean["fallbacks"] / mean["splits"] if mean["splits"] else 0.0
        rows.append({"mu": mu, **mean, "fallback_rate_pct": rate})
    return rows


def cmd_ablate_step(args) -> int:
    file_cfg = _load_config_file(args.config, _ABLATE_KEYS)
    if args.repeats < 1:
        raise CliConfigError("--repeats: must be at least 1")
    mu_values = []
    for token in args.mu_list.split(","):
        token = token.strip()
        if not token:
            continue
        mu_values.append(_parse_step(token, "--mu-list"))
    if not mu_values:
        raise CliConfigError("--mu-list: no step sizes given")

    rows = ablate_step_rows(
        args.dataset, mu_values, args.repeats, _configure(TreeConfig(), args, file_cfg),
        train_fraction=args.train_fraction, seed=args.seed,
        use_standardize=args.standardize,
        target=(args.target if args.target is not None else "y"),
        header=not args.no_header,
    )
    header_cols = ("mu", "rmse", "leaves", "avg_iters", "fit_time_s",
                   "fallbacks", "splits", "fallback_rate_pct")
    print("# avg_iters sums both hinge variants per materialized split;")
    print("# fit_time_s covers training only (data generation excluded).")
    print("  ".join(f"{c:>17}" for c in header_cols))
    for row in rows:
        print("  ".join(f"{_fmt(row[c]):>17}" for c in header_cols))
    _write_json(args, {
        "command": "ablate-step",
        "dataset": args.dataset,
        "repeats": args.repeats,
        "train_fraction": args.train_fraction,
        "seed": args.seed,
        "rows": rows,
    })
    return 0


def cmd_boost_diagnose(args) -> int:
    model = load_model(args.model)
    if not isinstance(model, BoostModel):
        raise CliConfigError(f"model-path: {args.model} does not hold a boost model")
    checks = gamma_bound_check(model)
    print(f"{'stage':>6} {'gamma':>14} {'loss':>14} {'bound_rhs':>14} {'ok':>4}")
    for c in checks:
        print(f"{c.stage:>6} {_fmt(model.gamma_trace[c.stage - 1]):>14} "
              f"{_fmt(c.lhs):>14} {_fmt(c.rhs):>14} {str(c.ok):>4}")
    all_ok = all(c.ok for c in checks)
    _write_json(args, {
        "command": "boost-diagnose",
        "model_path": args.model,
        "stages": [{"stage": c.stage, "gamma": model.gamma_trace[c.stage - 1],
                    "loss": c.lhs, "bound_rhs": c.rhs, "ok": c.ok}
                   for c in checks],
        "all_ok": all_ok,
    })
    return 0 if all_ok else 5


def cmd_trace_node(args) -> int:
    file_cfg = _load_config_file(args.config, _SPLIT_KEYS)
    ds = _dataset(args)
    config = _configure(SplitConfig(), args, file_cfg, seed=args.seed)
    outcome = select_split(ds.X, ds.y, config)
    print("iteration,objective,mu,s1_size,s2_size")
    rows = []
    for i, value in enumerate(outcome.objective_trace):
        mu = "" if i == 0 else _fmt(outcome.mu_trace[i - 1])
        n1, n2 = outcome.partition_sizes[i]
        print(f"{i},{value:.17g},{mu},{n1},{n2}")
        rows.append({"iteration": i, "objective": value,
                     "mu": None if i == 0 else outcome.mu_trace[i - 1],
                     "s1_size": n1, "s2_size": n2})
    _write_json(args, {
        "command": "trace-node",
        "dataset": args.dataset,
        "kind": outcome.kind.value,
        "converged": outcome.converged,
        "rows": rows,
    })
    return 0


def cmd_synth(args) -> int:
    ds = parse_dataset_spec(args.dataset)
    write_csv(ds, args.out)
    print(f"wrote {ds.n} rows (d={ds.d}) to {args.out}")
    _write_json(args, {"command": "synth", "dataset": args.dataset,
                       "n": ds.n, "d": ds.d, "out": args.out})
    return 0


def _add_dataset_arg(sub):
    sub.add_argument("dataset", help="CSV path or synthetic spec "
                                     "name:n=<N>:sigma=<s>:seed=<k>")
    sub.add_argument("--target", default=None,
                     help="target column name or index for CSV data (default y)")
    sub.add_argument("--no-header", action="store_true",
                     help="CSV file has no header row")


def _add_json(sub):
    sub.add_argument("--json", metavar="PATH", default=None,
                     help="also write a machine-readable report to PATH")


def _add_fit_common(sub):
    sub.add_argument("--seed", type=int, default=0, help="base seed (default 0)")
    sub.add_argument("--config", metavar="PATH", default=None,
                     help="JSON file with default hyperparameters "
                          "(flags override file values)")
    _add_json(sub)


def _add_hyper(sub, *dests):
    for dest in dests:
        flag, _, kind, text = _HYPER[dest]
        sub.add_argument(flag, dest=dest, type=kind, default=None, help=text)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hingetree",
        description="Train, evaluate and diagnose hinge regression trees "
                    "and their boosted ensembles.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    train = subs.add_parser("train", help="fit a model and write it to disk")
    _add_dataset_arg(train)
    train.add_argument("kind", choices=["hrt", "boost"], help="model kind")
    _add_hyper(train, *_BOOST_KEYS)
    train.add_argument("--out", required=True, help="model file to write")
    train.add_argument("--diagnostics", action="store_true",
                       help="retain per-node objective traces")
    train.add_argument("--standardize", action="store_true",
                       help="standardize features (transform stored in the model)")
    train.add_argument("--flops-mode", choices=["two", "diff"], default="two")
    _add_fit_common(train)
    train.set_defaults(func=cmd_train)

    ev = subs.add_parser("eval", help="evaluate a saved model on a dataset")
    ev.add_argument("model", help="model file")
    _add_dataset_arg(ev)
    ev.add_argument("--flops-mode", choices=["two", "diff"], default="two")
    _add_json(ev)
    ev.set_defaults(func=cmd_eval)

    pred = subs.add_parser("predict", help="emit predictions for a CSV file")
    pred.add_argument("model", help="model file")
    pred.add_argument("dataset", help="CSV of feature rows")
    pred.add_argument("--target", default=None,
                      help="target column to drop from the CSV, if present")
    pred.add_argument("--no-header", action="store_true")
    pred.add_argument("--out", default=None, help="output CSV (default stdout)")
    _add_json(pred)
    pred.set_defaults(func=cmd_predict)

    ab = subs.add_parser("ablate-step",
                         help="sweep step sizes and tabulate averaged metrics")
    _add_dataset_arg(ab)
    ab.add_argument("--mu-list", required=True,
                    help="comma-separated step sizes, e.g. 0.01,0.05,auto")
    ab.add_argument("--repeats", type=int, default=10)
    ab.add_argument("--train-fraction", dest="train_fraction", type=float,
                    default=0.7)
    _add_hyper(ab, *_ABLATE_KEYS)
    ab.add_argument("--standardize", action="store_true")
    _add_fit_common(ab)
    ab.set_defaults(func=cmd_ablate_step)

    diag = subs.add_parser("boost-diagnose",
                           help="verify the per-stage risk bound of a saved ensemble")
    diag.add_argument("model", help="boost model file")
    _add_json(diag)
    diag.set_defaults(func=cmd_boost_diagnose)

    tr = subs.add_parser("trace-node",
                         help="optimize one node split and emit its objective trace")
    _add_dataset_arg(tr)
    _add_hyper(tr, *_SPLIT_KEYS)
    _add_fit_common(tr)
    tr.set_defaults(func=cmd_trace_node)

    synth = subs.add_parser("synth", help="write a generated dataset to CSV")
    synth.add_argument("dataset", help="synthetic spec name:n=<N>:sigma=<s>:seed=<k>")
    synth.add_argument("--out", required=True, help="CSV file to write")
    _add_json(synth)
    synth.set_defaults(func=cmd_synth)

    return parser


def main(argv=None) -> int:
    _setup_logging()
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (CliConfigError, ValueError, HingeTreeError, OSError) as exc:
        if isinstance(exc, (CliConfigError, ValueError)):
            code, what = 2, "configuration error"
        elif isinstance(exc, DimensionMismatch):
            code, what = 4, "dimension mismatch"
        else:
            code, what = 3, "data error"
        if log.isEnabledFor(logging.DEBUG):
            log.exception(what)
        print(f"error: {exc}", file=sys.stderr)
        return code


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    sys.exit(main())
