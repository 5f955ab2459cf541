"""Stage-wise residual boosting with hinge regression trees as base learners.

The ensemble starts from the constant mean and adds ``eta`` times a tree
fit to the current residuals at each stage.  Under squared loss the
pseudo-residual is the ordinary residual, and each retained stage lowers
the empirical risk by at least the factor ``1 - eta * gamma_m``, where
``gamma_m`` is the fraction of residual energy the stage captured.
"""
from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .errors import DimensionMismatch, NonFiniteInput
from .linear import affine_row, check_training
from .split import SplitConfig, _check_numbers
# ``predict`` is not called here, but perfbench/tracer.py patches hingetree.boost.predict.
from .tree import (HrtModel, TreeConfig, _flatten, _route, _Table, build_tree,  # noqa: F401
                   check_features, check_row, derive_seed, predict, predict_batch)

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

    ``tree`` is the base-learner configuration and defaults to
    :func:`default_boost_tree_config`, whose automatic step size adapts to
    the shrinking residual scale across stages.
    """

    m_stages: int = 50
    eta: float = 0.1
    tree: TreeConfig = field(default_factory=default_boost_tree_config)

    def __post_init__(self):
        _check_numbers(self, ("m_stages",), ("eta",))
        if not isinstance(self.tree, TreeConfig):
            raise ValueError(f"tree must be a TreeConfig, got {self.tree!r}")
        if not self.m_stages >= 0:
            raise ValueError("m_stages must be non-negative")
        if not 0.0 < self.eta <= 1.0:
            raise ValueError("eta must lie in (0, 1]")


@dataclass(frozen=True)
class BoostModel:
    """Fitted ensemble.

    ``loss_trace[m]`` is the training risk after stage m (index 0 is the
    constant initializer).  ``gamma_trace[m-1]`` is stage m's realized
    residual-fit coefficient, clipped to 0 for a discarded stage.
    ``stage_retained`` marks which stages contributed a learner; discarded
    stages leave the ensemble unchanged, so ``learners`` holds retained
    trees only, in stage order.  ``preprocess`` records a transform fitted
    with the model (the CLI's ``train --standardize``); only the CLI
    applies it, and the predict functions take rows as given.

    Building the model stores ``learners``, ``gamma_trace``, ``loss_trace``
    and ``stage_retained`` as tuples and flattens the learners' trees, in
    order, into one router table (:func:`~hingetree.tree._flatten`).  It
    raises ``ValueError`` unless ``loss_trace`` has one entry per stage
    plus the initializer's, ``learners`` one per retained stage, and
    ``gamma_trace`` one per stage or none (a legacy file), and, once the
    table is built, unless each retained stage m's learner has the config
    :func:`fit_boost` gives it, ``_stage_config(config.tree, m)``: a saved
    file keeps only ``config.tree``, so a learner of another config would
    load with one it was not fitted with.  The model, its learners and
    their nodes cannot change, so a changed ensemble is a new model
    (:func:`dataclasses.replace`).
    """

    f0: float
    eta: float
    learners: tuple[HrtModel, ...]
    gamma_trace: tuple[float, ...]
    loss_trace: tuple[float, ...]
    stage_retained: tuple[bool, ...]
    d: int
    config: BoostConfig
    preprocess: dict | None = None
    _table: _Table = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        for name in ("learners", "gamma_trace", "loss_trace", "stage_retained"):
            object.__setattr__(self, name, tuple(getattr(self, name)))
        # The stage loop reads one learner per retained stage and one loss per stage.
        stages = len(self.stage_retained)
        if len(self.loss_trace) != stages + 1:
            raise ValueError(f"loss_trace: expected {stages + 1} entries for {stages} stages, "
                             f"got {len(self.loss_trace)}")
        retained = sum(self.stage_retained)
        if retained != len(self.learners):
            raise ValueError(f"stage_retained: {retained} retained stages for "
                             f"{len(self.learners)} learners")
        if len(self.gamma_trace) not in (0, stages):
            raise ValueError(f"gamma_trace: expected {stages} entries or none, "
                             f"got {len(self.gamma_trace)}")
        object.__setattr__(self, "_table", _flatten([t.root for t in self.learners], self.d))
        kept_stages = (m for m, kept in enumerate(self.stage_retained, start=1) if kept)
        for i, (m, learner) in enumerate(zip(kept_stages, self.learners)):
            if learner.config != _stage_config(self.config.tree, m):
                raise ValueError(f"learners[{i}]: config is not stage {m}'s config.tree")


@dataclass
class StageCheck:
    stage: int
    lhs: float
    rhs: float
    ok: bool


def _loss(y, fx) -> float:
    r = y - fx
    return 0.5 * float(r @ r)


def _stage_config(tree: TreeConfig, m: int) -> TreeConfig:
    """Stage m's learner config: ``tree`` with its split seed mixed with m (slot 3)."""
    return replace(tree, split=replace(tree.split, seed=derive_seed(tree.split.seed, m, 3)))


def fit_boost(X, y, config: BoostConfig | None = None) -> BoostModel:
    """Fit the boosted ensemble on (X, y).

    Stage m trains a tree on the residuals ``y - F_{m-1}(X)`` with a seed
    derived from the base seed and m (:func:`_stage_config`).  A stage
    whose tree fits the residuals worse than the zero predictor would break
    the stage-wise risk bound, so it is discarded (gamma recorded as 0,
    risk unchanged); with least-squares leaf fits this only happens through
    rounding.
    Training stops early once the residual energy hits the relative
    machine floor.  Deterministic for identical (X, y, config), with the
    scope of :func:`~hingetree.tree.build_tree`'s "same seed, same bits":
    one NumPy, one BLAS kernel and one BLAS thread count.
    """
    if config is None:
        config = BoostConfig()
    X, y = check_training(X, y)

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
        learner = build_tree(X, r, _stage_config(config.tree, m))
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

    ``x`` is checked and converted once, to Python floats
    (:func:`~hingetree.tree.check_row`, which raises :class:`NonFiniteInput`
    for NaN or an infinity).  Two calls of the one-row kernel
    :func:`~hingetree.linear.affine_row`, one over the rows of the
    ensemble's ``coef_p`` and one over those of its ``coef_q``, then
    evaluate both hinge sides of every node of the table built with the
    model, off-path nodes included, and each node's child is picked once:
    the first iff ``p >= q``, so a NaN side routes second, and a leaf
    routes to itself.  Every learner follows the picked children from its
    root for the table's ``deepest`` steps, and ``eta`` times each reached
    leaf's value is added in stage order.  These are the operations of
    :func:`predict_boost_batch` on the same row, so the bits agree; an
    ensemble without learners returns f0.

    The cost grows with the ensemble's node count times d+1, where the
    batch router's grows with its learner count times ``deepest`` times
    d+1, plus its per-level calls.  So this pass is the faster up to about
    12,700 nodes at d = 16 and 25,000 at d = 2, and for huge ensembles of
    deep trees :func:`predict_boost_batch` on a one-row batch is the faster.
    """
    row = check_row(x, model.d)
    coef_p, coef_q, left, right, starts, deepest = model._table
    # Off-path nodes may overflow on a finite row; they never reach the result.
    with np.errstate(over="ignore", invalid="ignore"):
        p = affine_row(row, coef_p)
        first = p >= affine_row(row, coef_q)
    child = np.where(first, left, right)
    node = starts
    for _ in range(deepest):
        node = child.take(node)
    total = model.f0
    for value in p.take(node).tolist():
        total += model.eta * value
    return total


def _staged(model: BoostModel, X: np.ndarray):
    """Yield the ensemble's values on checked ``X`` from ``f0`` and after every recorded stage.

    All retained learners go through the tree layer's batch router
    (:func:`~hingetree.tree._route`) together, on the ensemble's table
    built with the model, which moves every (row, learner) pair down one
    level per step.  Each retained stage then adds ``eta`` times its
    learner's values in place, in stage order, so use each yielded array
    before drawing the next.
    """
    total = np.full(X.shape[0], model.f0)
    yield total
    values = _route(model._table, X)
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
