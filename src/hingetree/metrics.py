"""Evaluation metrics, structural complexity, and analytic inference FLOPs."""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .boost import BoostModel
from .errors import EmptyInput, LengthMismatch, NonFiniteInput
from .tree import HrtModel, Leaf, _preorder

# FLOPs conventions: a length-p dot product costs p multiplies plus p-1
# adds; "two" charges both branch predictors per split, "diff" charges a
# single dot product with the difference hyperplane.
FLOPS_MODES = ("two", "diff")


@dataclass
class EvalReport:
    rmse: float
    mae: float
    r2: float
    n: int
    r2_defined: bool = True


@dataclass
class FlopsReport:
    inference_flops_per_sample: float
    total_parameters: int


def evaluate(predictions, targets) -> EvalReport:
    """RMSE, MAE and R^2 of paired prediction/target vectors.

    R^2 is undefined for constant targets; it is reported as NaN with
    ``r2_defined=False``.  A NaN or infinite value in either vector raises
    :class:`NonFiniteInput`, since every score would then be NaN or infinite.
    """
    p = np.asarray(predictions, dtype=float).ravel()
    t = np.asarray(targets, dtype=float).ravel()
    if p.shape[0] != t.shape[0]:
        raise LengthMismatch(f"{p.shape[0]} predictions vs {t.shape[0]} targets")
    if p.shape[0] == 0:
        raise EmptyInput("cannot evaluate zero samples")
    if not (np.isfinite(p).all() and np.isfinite(t).all()):
        raise NonFiniteInput("predictions or targets contain a NaN or infinite value")
    err = p - t
    rmse = float(np.sqrt(np.mean(err ** 2)))
    mae = float(np.mean(np.abs(err)))
    ss_res = float(err @ err)
    centered = t - t.mean()
    ss_tot = float(centered @ centered)
    if ss_tot == 0.0:
        return EvalReport(rmse=rmse, mae=mae, r2=math.nan, n=p.shape[0],
                          r2_defined=False)
    return EvalReport(rmse=rmse, mae=mae, r2=1.0 - ss_res / ss_tot, n=p.shape[0])


def hrt_inference_flops(model: HrtModel, mode: str = "two") -> FlopsReport:
    """Single-sample inference FLOPs, averaged over all root-to-leaf paths.

    Each internal node costs two hinge dot products plus one comparison
    (``mode="two"``, matching the stored two-model representation) or one
    difference-hyperplane dot product plus a comparison (``mode="diff"``);
    the reached leaf costs one dot product.  Paths are unweighted.
    """
    if mode not in FLOPS_MODES:
        raise ValueError(f"mode must be one of {FLOPS_MODES}")
    p = model.d + 1
    dot_cost = 2 * p - 1
    split_cost = (2 * dot_cost if mode == "two" else dot_cost) + 1
    costs = [depth * split_cost + dot_cost
             for node, depth in _preorder(model.root) if isinstance(node, Leaf)]
    return FlopsReport(
        inference_flops_per_sample=float(np.mean(costs)),
        total_parameters=p * (2 * (len(costs) - 1) + len(costs)),
    )


def boost_inference_flops(model: BoostModel, mode: str = "two") -> FlopsReport:
    """Ensemble inference FLOPs: per-learner path averages plus the
    scale-and-accumulate scalar ops (2 per learner, 1 for the constant
    initializer)."""
    per_learner = [hrt_inference_flops(t, mode) for t in model.learners]
    flops = sum(r.inference_flops_per_sample for r in per_learner)
    flops += 2 * len(model.learners) + 1
    params = sum(r.total_parameters for r in per_learner)
    return FlopsReport(inference_flops_per_sample=float(flops),
                       total_parameters=params)


def complexity_report(model) -> dict:
    """Structural summary: depth and leaves for a tree; totals for an ensemble."""
    if isinstance(model, HrtModel):
        return {"kind": "hrt", "depth": model.stats.depth, "leaves": model.stats.n_leaves}
    if isinstance(model, BoostModel):
        stats = [t.stats for t in model.learners]
        return {"kind": "boost", "stages": len(stats),
                "total_leaves": sum(s.n_leaves for s in stats),
                "max_depth": max((s.depth for s in stats), default=0)}
    raise TypeError(f"unsupported model type {type(model).__name__}")
