"""Versioned JSON persistence for tree and boost models.

Floats are emitted in Python's shortest round-trip decimal form, so a
save/load cycle reproduces every binary64 value exactly and predictions
are bit-identical.  Documents are written with sorted keys so identical
models serialize to identical bytes.  Saving serializes the whole model
before it opens the file, so a save that fails leaves the file as it was.

Loading checks each value where it reads it, in one walk over the
document, and every document it rejects raises :class:`CorruptModel`:
text that is not JSON, a ``format_version`` that is not the integer
``FORMAT_VERSION``, an unknown model kind, a missing key or child, a key
that no document of its kind or node of its tag holds (an internal node
may hold the fallback fields even when its split is not a fallback; they
are then ignored), boost traces whose lengths disagree with each other or
with the learners, a config field that is unknown or holds a value the
config rejects, a ``stage_retained`` entry that is not a boolean, an
``eta`` outside (0, 1], or a ``preprocess`` block that
:meth:`~hingetree.datasets.StandardizeTransform.from_dict` rejects, that
holds a key it does not read or whose width is not d.  Numbers follow one
rule and are never converted before it: a coefficient, ``f0``, ``eta``, a
trace entry and a fallback threshold must be a finite JSON int or float
(:func:`~hingetree.datasets._finite`; a boolean or a string is not one),
and ``d``, ``n_train`` and a fallback feature (which must also lie in
[0, d)) a non-negative JSON integer.  Growth records are not saved:
loading builds each internal node's :class:`~hingetree.split.Split` and
makes up no record.
"""
from __future__ import annotations

import json
from contextlib import contextmanager
from dataclasses import asdict

import numpy as np

from .boost import BoostConfig, BoostModel, _stage_config
from .datasets import StandardizeTransform, _finite
from .errors import CorruptModel
from .split import HingeKind, Split, SplitConfig
from .tree import HrtModel, Internal, Leaf, TreeConfig, TreeNode, train_stats

FORMAT_VERSION = 1


def _node_to_dict(node: TreeNode) -> dict:
    if isinstance(node, Leaf):
        return {"leaf": {"theta": [float(v) for v in node.theta],
                         "n_train": int(node.n_train)}}
    split = node.split
    body = {
        "kind": split.kind.value,
        "theta1": [float(v) for v in split.theta1],
        "theta2": [float(v) for v in split.theta2],
        "used_fallback": split.used_fallback,
        "left": _node_to_dict(node.left),
        "right": _node_to_dict(node.right),
    }
    if split.used_fallback:
        body["fallback_feature"] = int(split.fallback_feature)
        body["fallback_threshold"] = float(split.fallback_threshold)
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
# Keys a document may carry besides those, at the top level and in an internal node.
_ENVELOPE_KEYS = ("format_version", "kind", "preprocess")
_FALLBACK_KEYS = ("fallback_feature", "fallback_threshold")


def _require(doc, keys, where: str) -> None:
    if not isinstance(doc, dict):
        raise CorruptModel(f"{where}: expected a JSON object")
    missing = [k for k in keys if k not in doc]
    if missing:
        raise CorruptModel(f"{where}: missing {', '.join(map(repr, missing))}")


def _only(doc: dict, keys, where: str) -> None:
    unknown = [k for k in doc if k not in keys]
    if unknown:
        raise CorruptModel(f"{where}: unknown {', '.join(map(repr, unknown))}")


@contextmanager
def _reading(where: str):
    """Report a config or transform that rejects its document block as CorruptModel."""
    try:
        yield
    except (TypeError, ValueError, OverflowError) as exc:
        raise CorruptModel(f"{where}: {exc}") from None


def _theta(values, d: int, where: str) -> np.ndarray:
    if not (isinstance(values, list) and len(values) == d + 1 and all(map(_finite, values))):
        raise CorruptModel(f"{where}: expected a list of {d + 1} finite coefficients")
    return np.asarray(values, dtype=float)


def _number(value, where: str) -> float:
    if not _finite(value):
        raise CorruptModel(f"{where}: expected a finite number, got {value!r}")
    return float(value)


def _node_from_dict(doc, d: int, where: str) -> TreeNode:
    """The node ``doc`` and every node below it, each checked as it is built."""
    if not isinstance(doc, dict) or len(doc) != 1 or next(iter(doc)) not in _NODE_KEYS:
        raise CorruptModel(f"{where}: expected a 'leaf' or an 'internal' node")
    ((tag, body),) = doc.items()
    where = f"{where}.{tag}"
    _require(body, _NODE_KEYS[tag], where)
    _only(body, _NODE_KEYS[tag] + (_FALLBACK_KEYS if tag == "internal" else ()), where)
    if tag == "leaf":
        n_train = body["n_train"]
        if type(n_train) is not int or n_train < 0:
            raise CorruptModel(f"{where}.n_train: expected a non-negative integer, "
                               f"got {n_train!r}")
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
        _require(body, _FALLBACK_KEYS, where)
        feature = body["fallback_feature"]
        if type(feature) is not int or not 0 <= feature < d:
            raise CorruptModel(f"{where}.fallback_feature: expected a feature index in "
                               f"[0, {d}), got {feature!r}")
        threshold = _number(body["fallback_threshold"], f"{where}.fallback_threshold")
    split = Split(kind=HingeKind(body["kind"]), theta1=theta1, theta2=theta2,
                  fallback_feature=feature, fallback_threshold=threshold)
    return Internal(split=split,
                    left=_node_from_dict(body["left"], d, f"{where}.left"),
                    right=_node_from_dict(body["right"], d, f"{where}.right"))


def _tree_config_from_dict(doc, where: str) -> TreeConfig:
    _require(doc, ("split",), where)
    # Earlier format-1 files also store ``fallback_on_nonconvergence`` and
    # ``collect_traces``; fallbacks and traces are now unconditional.
    rest = {k: v for k, v in doc.items()
            if k not in ("split", "fallback_on_nonconvergence", "collect_traces")}
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

    Every malformed value listed in the module docstring, an unsupported
    ``format_version`` (a boolean is not an integer here) and an unknown
    model kind included, raises :class:`CorruptModel`, and nothing else
    does.
    """
    if not isinstance(doc, dict):
        raise CorruptModel("model: expected a JSON object")
    version = doc.get("format_version")
    if type(version) is not int or version != FORMAT_VERSION:
        raise CorruptModel(f"unsupported format_version {version!r}")
    kind = doc.get("kind")
    if not isinstance(kind, str) or kind not in _MODEL_KEYS:
        raise CorruptModel(f"unknown model kind {kind!r}")
    _require(doc, _MODEL_KEYS[kind], "model")
    _only(doc, _MODEL_KEYS[kind] + _ENVELOPE_KEYS, "model")
    d = doc["d"]
    if type(d) is not int or d < 0:
        raise CorruptModel(f"model: 'd' must be a non-negative integer, got {d!r}")
    preprocess = doc.get("preprocess")
    if preprocess is not None:
        _require(preprocess, ("standardize",), "preprocess")
        _only(preprocess, ("standardize",), "preprocess")
        with _reading("preprocess.standardize"):
            width = StandardizeTransform.from_dict(preprocess["standardize"]).shift.size
        _only(preprocess["standardize"], ("shift", "scale", "constant_mask"),
              "preprocess.standardize")
        if width != d:
            raise CorruptModel(f"preprocess.standardize: {width} features for a model of {d}")
    if kind == "hrt":
        root = _node_from_dict(doc["root"], d, "root")
        # Optimizer effort counters are not serialized; they read 0 on load.
        return HrtModel(root=root, d=d, config=_tree_config_from_dict(doc["config"], "config"),
                        stats=train_stats(root), preprocess=preprocess)

    _require(doc["config"], ("m_stages", "eta", "tree"), "config")
    # Earlier format-1 files also store ``record_gamma``; it is ignored.
    _only(doc["config"], ("m_stages", "eta", "tree", "record_gamma"), "config")
    tree_config = _tree_config_from_dict(doc["config"]["tree"], "config.tree")
    with _reading("config"):
        config = BoostConfig(m_stages=doc["config"]["m_stages"], eta=doc["config"]["eta"],
                             tree=tree_config)
    f0, eta = _number(doc["f0"], "f0"), doc["eta"]
    # Not required to equal config.eta: only this one scales the learners.
    if not (_finite(eta) and 0.0 < eta <= 1.0):
        raise CorruptModel(f"eta: must lie in (0, 1], got {eta!r}")
    for key in ("learners", "gamma_trace", "loss_trace", "stage_retained"):
        if not isinstance(doc[key], list):
            raise CorruptModel(f"{key}: expected a list")
    gamma_trace = [_number(v, f"gamma_trace[{i}]") for i, v in enumerate(doc["gamma_trace"])]
    loss_trace = [_number(v, f"loss_trace[{i}]") for i, v in enumerate(doc["loss_trace"])]
    stage_retained = doc["stage_retained"]
    for i, b in enumerate(stage_retained):
        if type(b) is not bool:
            raise CorruptModel(f"stage_retained[{i}]: expected true or false, got {b!r}")
    roots = [_node_from_dict(node, d, f"learners[{i}]") for i, node in enumerate(doc["learners"])]
    # Learner i is the i-th retained stage's; surplus learners take stage 0's config, and the
    # model's count check then rejects the file.
    stage = (m for m, kept in enumerate(stage_retained, start=1) if kept)
    learners = [HrtModel(root=root, d=d, config=_stage_config(tree_config, next(stage, 0)),
                         stats=train_stats(root)) for root in roots]
    try:
        return BoostModel(f0=f0, eta=float(eta), learners=learners, gamma_trace=gamma_trace,
                          loss_trace=loss_trace, stage_retained=stage_retained, d=d,
                          config=config, preprocess=preprocess)
    except ValueError as exc:  # the trace and learner counts disagree
        raise CorruptModel(str(exc)) from None


def dumps_model(model) -> str:
    return json.dumps(model_to_dict(model), sort_keys=True, indent=2) + "\n"


def loads_model(text: str):
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise CorruptModel(f"model: not valid JSON ({exc})") from None
    except RecursionError:  # nodes nest in the document as deep as the tree
        raise CorruptModel("model: nested too deeply") from None
    return model_from_dict(doc)


def save_model(model, path: str) -> None:
    text = dumps_model(model)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def load_model(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise CorruptModel(f"model: not UTF-8 text ({exc})") from None
    return loads_model(text)
