"""Stage-wise residual boosting with hinge regression trees as base learners.

The ensemble starts from the constant mean and adds ``eta`` times a tree
fit to the current residuals at each stage.  Under squared loss the
pseudo-residual is the ordinary residual, and each retained stage lowers
the empirical risk by at least the factor ``1 - eta * gamma_m``, where
``gamma_m`` is the fraction of residual energy the stage captured.
"""
from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import DimensionMismatch, NonFiniteInput
from .linear import check_training
from .split import SplitConfig
from .tree import (  # noqa: F401 -- perfbench/tracer.py patches hingetree.boost.predict
    HrtModel,
    TreeConfig,
    _route,
    build_tree,
    check_features,
    check_row,
    derive_seed,
    predict,
    predict_batch,
    predict_row,
)

# Relative residual-energy floor below which training stops early.
_RESIDUAL_FLOOR = 1e-24


def default_boost_tree_config(seed: int = 0) -> TreeConfig:
    """Base-learner defaults: shallow trees, automatic step size, no RMSE stop."""
    return TreeConfig(
        d_max=3,
        n_min=5,
        tau_rmse=0.0,
        split=SplitConfig(step="auto", seed=seed),
    )


@dataclass(frozen=True)
class BoostConfig:
    """Boosting hyperparameters.

    ``tree`` is the base-learner configuration; leaving it unset picks
    :func:`default_boost_tree_config`, whose automatic step size adapts to
    the shrinking residual scale across stages.
    """

    m_stages: int = 50
    eta: float = 0.1
    tree: TreeConfig | None = None

    def __post_init__(self):
        if self.m_stages < 0:
            raise ValueError("m_stages must be non-negative")
        if not 0.0 < self.eta <= 1.0:
            raise ValueError("eta must lie in (0, 1]")


@dataclass
class BoostModel:
    """Fitted ensemble.

    ``loss_trace[m]`` is the training risk after stage m (index 0 is the
    constant initializer).  ``gamma_trace[m-1]`` is stage m's realized
    residual-fit coefficient, clipped to 0 for a discarded stage.
    ``stage_retained`` marks which stages contributed a learner; discarded
    stages leave the ensemble unchanged, so ``learners`` holds retained
    trees only, in stage order.
    """

    f0: float
    eta: float
    learners: list[HrtModel]
    gamma_trace: list[float]
    loss_trace: list[float]
    stage_retained: list[bool]
    d: int
    config: BoostConfig
    preprocess: dict | None = None


@dataclass
class StageCheck:
    stage: int
    lhs: float
    rhs: float
    ok: bool


def _loss(y, fx) -> float:
    r = y - fx
    return 0.5 * float(r @ r)


def fit_boost(X, y, config: BoostConfig | None = None) -> BoostModel:
    """Fit the boosted ensemble on (X, y).

    Stage m trains a tree on the residuals ``y - F_{m-1}(X)`` with a seed
    derived from the base seed and m.  A stage whose tree fits the
    residuals worse than the zero predictor would break the stage-wise
    risk bound, so it is discarded (gamma recorded as 0, risk unchanged);
    with least-squares leaf fits this only happens through rounding.
    Training stops early once the residual energy hits the relative
    machine floor.
    """
    if config is None:
        config = BoostConfig()
    tree_cfg = config.tree if config.tree is not None else default_boost_tree_config()
    config = replace(config, tree=tree_cfg)
    X, y = check_training(X, y)

    base_seed = tree_cfg.split.seed
    f0 = float(np.mean(y))
    fx = np.full(y.shape[0], f0)
    centered = y - f0
    sse0 = float(centered @ centered)

    learners: list[HrtModel] = []
    gammas: list[float] = []
    retained: list[bool] = []
    losses = [_loss(y, fx)]

    for m in range(1, config.m_stages + 1):
        r = y - fx
        r_sq = float(r @ r)
        if r_sq <= _RESIDUAL_FLOOR * sse0:
            break
        stage_cfg = replace(tree_cfg, split=replace(tree_cfg.split,
                                                    seed=derive_seed(base_seed, m, 3)))
        learner = build_tree(X, r, stage_cfg)
        t = predict_batch(learner, X)
        miss_sq = float((r - t) @ (r - t))
        gamma = 1.0 - miss_sq / r_sq
        if miss_sq > r_sq:
            gammas.append(0.0)
            retained.append(False)
            losses.append(losses[-1])
            continue
        fx = fx + config.eta * t
        learners.append(learner)
        gammas.append(gamma)
        retained.append(True)
        losses.append(_loss(y, fx))

    return BoostModel(
        f0=f0,
        eta=config.eta,
        learners=learners,
        gamma_trace=gammas,
        loss_trace=losses,
        stage_retained=retained,
        d=X.shape[1],
        config=config,
    )


def predict_boost(model: BoostModel, x) -> float:
    """f0 plus eta times the sum of learner predictions, in stage order.

    ``x`` is checked and converted once (:func:`~hingetree.tree.check_row`,
    which raises :class:`NonFiniteInput` for NaN or an infinity); each
    learner then routes it with
    :func:`~hingetree.tree.predict_row`.  The float operations are those
    of :func:`predict_boost_batch` on the same row.
    """
    row = check_row(x, model.d)
    total = model.f0
    for learner in model.learners:
        total += model.eta * predict_row(learner.root, row)
    return total


def _staged(model: BoostModel, X: np.ndarray):
    """Yield the ensemble's values on checked ``X`` from ``f0`` and after every recorded stage.

    All retained learners go through the tree layer's batch router
    (:func:`~hingetree.tree._route`) together, which moves every (row,
    learner) pair down one level per step.  Each retained stage then adds
    ``eta`` times its learner's values in place, in stage order, so use
    each yielded array before drawing the next.
    """
    total = np.full(X.shape[0], model.f0)
    yield total
    values = _route([learner.root for learner in model.learners], X)
    for kept in model.stage_retained:
        if kept:
            total += model.eta * next(values)
        yield total


def predict_boost_batch(model: BoostModel, X) -> np.ndarray:
    """Vectorized :func:`predict_boost`, bit-identical to it per row.

    The last values of the staged loop (:func:`_staged`): every learner's
    values come from one routing pass over all learners, and they are
    added in stage order with the same rounded operations as the scalar
    loop.
    """
    for total in _staged(model, check_features(X, model.d)):
        pass
    return total


def staged_losses(model: BoostModel, X, y) -> np.ndarray:
    """Recompute the empirical risk after every recorded stage from scratch.

    On the training data this equals ``loss_trace`` bit for bit, since
    :func:`fit_boost` performs the same rounded operations.  Discarded
    stages repeat the previous value.  A NaN or infinite value in ``X`` or
    ``y`` raises :class:`NonFiniteInput`.
    """
    X = check_features(X, model.d)
    y = np.asarray(y, dtype=float).ravel()
    if X.shape[0] != y.shape[0]:
        raise DimensionMismatch("X and y row counts differ")
    if not np.isfinite(y).all():
        raise NonFiniteInput("target vector contains a NaN or infinite value")
    return np.array([_loss(y, fx) for fx in _staged(model, X)])


def gamma_bound_check(model: BoostModel) -> list[StageCheck]:
    """Verify the per-stage risk bound from the recorded traces.

    Stage m passes when ``L_m <= (1 - eta * max(gamma_m, 0)) * L_{m-1}``
    plus a rounding allowance of ``1e-9 * L_0``.  A model whose gamma
    trace is not one entry per stage (a legacy file saved without it)
    raises ``ValueError``.
    """
    if len(model.gamma_trace) != len(model.stage_retained):
        raise ValueError("gamma trace was not recorded for this model")
    checks = []
    slack = 1e-9 * model.loss_trace[0]
    for m, gamma in enumerate(model.gamma_trace, start=1):
        lhs = model.loss_trace[m]
        rhs = (1.0 - model.eta * max(gamma, 0.0)) * model.loss_trace[m - 1] + slack
        checks.append(StageCheck(stage=m, lhs=lhs, rhs=rhs, ok=lhs <= rhs))
    return checks
