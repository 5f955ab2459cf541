"""Versioned JSON persistence for tree and boost models.

Floats are emitted in Python's shortest round-trip decimal form, so a
save/load cycle reproduces every binary64 value exactly and predictions
are bit-identical.  Documents are written with sorted keys so identical
models serialize to identical bytes.
"""
from __future__ import annotations

import json
from dataclasses import asdict

import numpy as np

from .boost import BoostConfig, BoostModel
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


def _node_from_dict(doc: dict) -> TreeNode:
    if "leaf" in doc:
        leaf = doc["leaf"]
        return Leaf(theta=np.asarray(leaf["theta"], dtype=float),
                    n_train=int(leaf["n_train"]))
    body = doc["internal"]
    outcome = SplitOutcome(
        theta1=np.asarray(body["theta1"], dtype=float),
        theta2=np.asarray(body["theta2"], dtype=float),
        kind=HingeKind(body["kind"]),
        converged=True,
        iterations=0,
        objective_trace=[],
        used_fallback=bool(body["used_fallback"]),
        fallback_feature=body.get("fallback_feature"),
        fallback_threshold=body.get("fallback_threshold"),
    )
    return Internal(split=outcome,
                    left=_node_from_dict(body["left"]),
                    right=_node_from_dict(body["right"]))


def _tree_config_from_dict(doc: dict) -> TreeConfig:
    split = SplitConfig(**doc["split"])
    # Earlier format-1 files also store ``fallback_on_nonconvergence``; the
    # median fallback is now unconditional, so that key is ignored.
    rest = {k: v for k, v in doc.items() if k not in ("split", "fallback_on_nonconvergence")}
    return TreeConfig(split=split, **rest)


def model_to_dict(model) -> dict:
    if isinstance(model, HrtModel):
        doc = {
            "format_version": FORMAT_VERSION,
            "kind": "hrt",
            "d": int(model.d),
            "config": asdict(model.config),
            "root": _node_to_dict(model.root),
        }
        if model.preprocess is not None:
            doc["preprocess"] = model.preprocess
        return doc
    if isinstance(model, BoostModel):
        doc = {
            "format_version": FORMAT_VERSION,
            "kind": "boost",
            "d": int(model.d),
            "f0": float(model.f0),
            "eta": float(model.eta),
            "gamma_trace": [float(g) for g in model.gamma_trace],
            "loss_trace": [float(v) for v in model.loss_trace],
            "stage_retained": [bool(b) for b in model.stage_retained],
            "config": asdict(model.config),
            "learners": [_node_to_dict(t.root) for t in model.learners],
        }
        if model.preprocess is not None:
            doc["preprocess"] = model.preprocess
        return doc
    raise TypeError(f"unsupported model type {type(model).__name__}")


def model_from_dict(doc: dict):
    version = doc.get("format_version")
    if version != FORMAT_VERSION:
        raise ValueError(f"unsupported format_version {version!r}")
    kind = doc.get("kind")
    if kind == "hrt":
        root = _node_from_dict(doc["root"])
        return HrtModel(
            root=root,
            d=int(doc["d"]),
            config=_tree_config_from_dict(doc["config"]),
            # Optimizer effort counters are not serialized; they read 0 on load.
            stats=train_stats(root),
            preprocess=doc.get("preprocess"),
        )
    if kind == "boost":
        tree_config = _tree_config_from_dict(doc["config"]["tree"])
        config = BoostConfig(
            m_stages=int(doc["config"]["m_stages"]),
            eta=float(doc["config"]["eta"]),
            tree=tree_config,
            record_gamma=bool(doc["config"]["record_gamma"]),
        )
        learners = []
        for node_doc in doc["learners"]:
            root = _node_from_dict(node_doc)
            learners.append(HrtModel(root=root, d=int(doc["d"]),
                                     config=tree_config,
                                     stats=train_stats(root)))
        return BoostModel(
            f0=float(doc["f0"]),
            eta=float(doc["eta"]),
            learners=learners,
            gamma_trace=[float(g) for g in doc["gamma_trace"]],
            loss_trace=[float(v) for v in doc["loss_trace"]],
            stage_retained=[bool(b) for b in doc["stage_retained"]],
            d=int(doc["d"]),
            config=config,
            preprocess=doc.get("preprocess"),
        )
    raise ValueError(f"unknown model kind {kind!r}")


def dumps_model(model) -> str:
    return json.dumps(model_to_dict(model), sort_keys=True, indent=2) + "\n"


def loads_model(text: str):
    return model_from_dict(json.loads(text))


def save_model(model, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps_model(model))


def load_model(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        return loads_model(fh.read())
