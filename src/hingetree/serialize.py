"""Versioned JSON persistence for tree and boost models.

Floats are emitted in Python's shortest round-trip decimal form, so a
save/load cycle reproduces every binary64 value exactly and predictions
are bit-identical.  Documents are written with sorted keys so identical
models serialize to identical bytes.  Loading checks each value where it
reads it, in one walk over the document.  Text that is not JSON, a missing
key or child, a coefficient vector that is not d+1 finite numbers, a
fallback split without a feature index in [0, d) and a finite threshold,
boost traces whose lengths disagree with each other or with the learners,
a config field that is unknown or holds a value the config rejects, a
count that is not a number, a trace entry that is not a finite number, a
``stage_retained`` entry that is not a boolean, an ``f0`` that is not
finite, an ``eta`` outside (0, 1], or a ``preprocess`` block that
:meth:`~hingetree.datasets.StandardizeTransform.from_dict` rejects or
whose width is not d raises :class:`CorruptModel`.
"""
from __future__ import annotations

import json
import math
from contextlib import contextmanager
from dataclasses import asdict

import numpy as np

from .boost import BoostConfig, BoostModel
from .datasets import StandardizeTransform, _finite
from .errors import CorruptModel
from .split import HingeKind, SplitConfig, SplitOutcome
from .tree import HrtModel, Internal, Leaf, TreeConfig, TreeNode, train_stats

FORMAT_VERSION = 1


def _node_to_dict(node: TreeNode) -> dict:
    if isinstance(node, Leaf):
        return {"leaf": {"theta": [float(v) for v in node.theta],
                         "n_train": int(node.n_train)}}
    o = node.split
    body = {
        "kind": o.kind.value,
        "theta1": [float(v) for v in o.theta1],
        "theta2": [float(v) for v in o.theta2],
        "used_fallback": bool(o.used_fallback),
        "left": _node_to_dict(node.left),
        "right": _node_to_dict(node.right),
    }
    if o.used_fallback:
        body["fallback_feature"] = int(o.fallback_feature)
        body["fallback_threshold"] = float(o.fallback_threshold)
    return {"internal": body}


# Keys every document must carry, per model kind and per node tag.
_MODEL_KEYS = {
    "hrt": ("d", "config", "root"),
    "boost": ("d", "f0", "eta", "gamma_trace", "loss_trace", "stage_retained", "config",
              "learners"),
}
_NODE_KEYS = {
    "leaf": ("theta", "n_train"),
    "internal": ("kind", "theta1", "theta2", "used_fallback", "left", "right"),
}


def _require(doc, keys, where: str) -> None:
    if not isinstance(doc, dict):
        raise CorruptModel(f"{where}: expected a JSON object")
    missing = [k for k in keys if k not in doc]
    if missing:
        raise CorruptModel(f"{where}: missing {', '.join(map(repr, missing))}")


@contextmanager
def _reading(where: str):
    """Report a document value that fails to convert as CorruptModel."""
    try:
        yield
    except (TypeError, ValueError, OverflowError) as exc:
        raise CorruptModel(f"{where}: {exc}") from None


def _theta(values, d: int, where: str) -> np.ndarray:
    if not (isinstance(values, list) and len(values) == d + 1 and all(map(_finite, values))):
        raise CorruptModel(f"{where}: expected a list of {d + 1} finite coefficients")
    return np.asarray(values, dtype=float)


def _finite_trace(values: list, where: str) -> list[float]:
    with _reading(where):
        trace = [float(v) for v in values]
    for i, v in enumerate(trace):
        if not math.isfinite(v):
            raise CorruptModel(f"{where}[{i}]: expected a finite number, got {v!r}")
    return trace


def _node_from_dict(doc, d: int, where: str) -> TreeNode:
    """The node ``doc`` and every node below it, each checked as it is built."""
    if not isinstance(doc, dict) or len(doc) != 1 or next(iter(doc)) not in _NODE_KEYS:
        raise CorruptModel(f"{where}: expected a 'leaf' or an 'internal' node")
    ((tag, body),) = doc.items()
    where = f"{where}.{tag}"
    _require(body, _NODE_KEYS[tag], where)
    if tag == "leaf":
        with _reading(f"{where}.n_train"):
            n_train = int(body["n_train"])
        return Leaf(theta=_theta(body["theta"], d, f"{where}.theta"), n_train=n_train)
    if body["kind"] not in [k.value for k in HingeKind]:
        raise CorruptModel(f"{where}.kind: unknown hinge kind {body['kind']!r}")
    theta1 = _theta(body["theta1"], d, f"{where}.theta1")
    theta2 = _theta(body["theta2"], d, f"{where}.theta2")
    used = body["used_fallback"]
    if type(used) is not bool:
        raise CorruptModel(f"{where}.used_fallback: expected true or false")
    feature = threshold = None
    if used:
        _require(body, ("fallback_feature", "fallback_threshold"), where)
        feature, threshold = body["fallback_feature"], body["fallback_threshold"]
        if type(feature) is not int or not 0 <= feature < d:
            raise CorruptModel(f"{where}.fallback_feature: expected a feature index in "
                               f"[0, {d}), got {feature!r}")
        if not _finite(threshold):
            raise CorruptModel(f"{where}.fallback_threshold: expected a finite number, "
                               f"got {threshold!r}")
    outcome = SplitOutcome(theta1=theta1, theta2=theta2, kind=HingeKind(body["kind"]),
                           converged=True, iterations=0, objective_trace=[],
                           used_fallback=used, fallback_feature=feature,
                           fallback_threshold=threshold)
    return Internal(split=outcome,
                    left=_node_from_dict(body["left"], d, f"{where}.left"),
                    right=_node_from_dict(body["right"], d, f"{where}.right"))


def _tree_config_from_dict(doc, where: str) -> TreeConfig:
    _require(doc, ("split",), where)
    # Earlier format-1 files also store ``fallback_on_nonconvergence``; the
    # median fallback is now unconditional, so that key is ignored.
    rest = {k: v for k, v in doc.items() if k not in ("split", "fallback_on_nonconvergence")}
    with _reading(where):  # an unknown field, a split block that is not an object, a bad value
        return TreeConfig(split=SplitConfig(**doc["split"]), **rest)


def model_to_dict(model) -> dict:
    if isinstance(model, HrtModel):
        doc = {"kind": "hrt", "root": _node_to_dict(model.root)}
    elif isinstance(model, BoostModel):
        doc = {
            "kind": "boost",
            "f0": float(model.f0),
            "eta": float(model.eta),
            "gamma_trace": [float(g) for g in model.gamma_trace],
            "loss_trace": [float(v) for v in model.loss_trace],
            "stage_retained": [bool(b) for b in model.stage_retained],
            "learners": [_node_to_dict(t.root) for t in model.learners],
        }
    else:
        raise TypeError(f"unsupported model type {type(model).__name__}")
    doc.update(format_version=FORMAT_VERSION, d=int(model.d), config=asdict(model.config))
    if model.preprocess is not None:
        doc["preprocess"] = model.preprocess
    return doc


def model_from_dict(doc: dict):
    """Build a model from its document, checking each value as it is read.

    A ``format_version`` that is not the integer ``FORMAT_VERSION`` (a
    boolean is not an integer here) or an unknown model kind raises
    ``ValueError``;
    every other malformed value listed in the module docstring raises
    :class:`CorruptModel`.
    """
    if not isinstance(doc, dict):
        raise CorruptModel("model: expected a JSON object")
    version = doc.get("format_version")
    if type(version) is not int or version != FORMAT_VERSION:
        raise ValueError(f"unsupported format_version {version!r}")
    kind = doc.get("kind")
    if not isinstance(kind, str) or kind not in _MODEL_KEYS:
        raise ValueError(f"unknown model kind {kind!r}")
    _require(doc, _MODEL_KEYS[kind], "model")
    d = doc["d"]
    if type(d) is not int or d < 0:
        raise CorruptModel(f"model: 'd' must be a non-negative integer, got {d!r}")
    preprocess = doc.get("preprocess")
    if preprocess is not None:
        _require(preprocess, ("standardize",), "preprocess")
        with _reading("preprocess.standardize"):
            width = StandardizeTransform.from_dict(preprocess["standardize"]).shift.size
        if width != d:
            raise CorruptModel(f"preprocess.standardize: {width} features for a model of {d}")
    if kind == "hrt":
        root = _node_from_dict(doc["root"], d, "root")
        # Optimizer effort counters are not serialized; they read 0 on load.
        return HrtModel(root=root, d=d, config=_tree_config_from_dict(doc["config"], "config"),
                        stats=train_stats(root), preprocess=preprocess)

    _require(doc["config"], ("m_stages", "eta", "tree"), "config")
    tree_config = _tree_config_from_dict(doc["config"]["tree"], "config.tree")
    # Earlier format-1 files also store ``record_gamma``; it is ignored.
    with _reading("config"):
        config = BoostConfig(m_stages=int(doc["config"]["m_stages"]),
                             eta=float(doc["config"]["eta"]), tree=tree_config)
    with _reading("f0"):
        f0 = float(doc["f0"])
    if not math.isfinite(f0):
        raise CorruptModel(f"f0: expected a finite number, got {f0!r}")
    with _reading("eta"):
        eta = float(doc["eta"])
    # Not required to equal config.eta: only this one scales the learners.
    if not 0.0 < eta <= 1.0:
        raise CorruptModel(f"eta: must lie in (0, 1], got {eta!r}")
    for key in ("learners", "gamma_trace", "loss_trace", "stage_retained"):
        if not isinstance(doc[key], list):
            raise CorruptModel(f"{key}: expected a list")
    gamma_trace = _finite_trace(doc["gamma_trace"], "gamma_trace")
    loss_trace = _finite_trace(doc["loss_trace"], "loss_trace")
    stage_retained = doc["stage_retained"]
    for i, b in enumerate(stage_retained):
        if type(b) is not bool:
            raise CorruptModel(f"stage_retained[{i}]: expected true or false, got {b!r}")
    # The stage loop reads one learner per retained stage and one loss per stage.
    stages = len(stage_retained)
    if len(loss_trace) != stages + 1:
        raise CorruptModel(f"loss_trace: expected {stages + 1} entries for {stages} stages, "
                           f"got {len(loss_trace)}")
    retained = sum(stage_retained)
    if retained != len(doc["learners"]):
        raise CorruptModel(f"stage_retained: {retained} retained stages for "
                           f"{len(doc['learners'])} learners")
    if len(gamma_trace) not in (0, stages):
        raise CorruptModel(f"gamma_trace: expected {stages} entries or none, "
                           f"got {len(gamma_trace)}")
    roots = [_node_from_dict(node, d, f"learners[{i}]") for i, node in enumerate(doc["learners"])]
    return BoostModel(
        f0=f0,
        eta=eta,
        learners=[HrtModel(root=root, d=d, config=tree_config, stats=train_stats(root))
                  for root in roots],
        gamma_trace=gamma_trace,
        loss_trace=loss_trace,
        stage_retained=stage_retained,
        d=d,
        config=config,
        preprocess=preprocess,
    )


def dumps_model(model) -> str:
    return json.dumps(model_to_dict(model), sort_keys=True, indent=2) + "\n"


def loads_model(text: str):
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise CorruptModel(f"model: not valid JSON ({exc})") from None
    return model_from_dict(doc)


def save_model(model, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps_model(model))


def load_model(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        return loads_model(fh.read())
