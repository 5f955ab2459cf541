"""Recursive tree construction over hinge splits, plus prediction routing.

A node becomes a leaf (its own ridge fit) when the depth cap, the minimum
sample count, or the RMSE threshold fires.  Otherwise both hinge variants
are optimized and the better one routes the samples; if optimization
stalls, a random-feature median split keeps growth going.

Every routing test is one rule, :func:`~hingetree.split._first_pair`: a
row takes the first branch iff ``p >= q`` for the node's ordered pair of
hinge sides, each evaluated by :func:`~hingetree.linear.affine`.  Training
applies it node by node to the rows that reach each node, and
:func:`predict_row` walks one row down one tree.  Batch prediction, for one
tree or for a whole boosted ensemble, goes through one level-wise router:
the trees are flattened into per-node coefficient and child-index tables,
every (row, tree) pair moves down one level per step, and the leaves are
evaluated at the end.  All of these perform the same rounded operations,
so a training row reaches the leaf that was fitted on it, and scalar and
batch predictions agree bit for bit.
"""
from __future__ import annotations

from dataclasses import dataclass, field, replace
from math import isfinite

import numpy as np

from .errors import AllFeaturesConstant, DimensionMismatch, NonFiniteInput
from .linear import affine, affine_row, augment, check_training, fit_or_mean
from .split import SplitConfig, SplitOutcome, _first_pair, median_fallback, select_split

_MASK64 = (1 << 64) - 1

# The most (row, tree) pairs the batch router moves down the trees at once;
# its temporaries grow with this times d+1, never with the batch.
_BLOCK = 1 << 16


def derive_seed(seed: int, level: int, slot: int) -> int:
    """Deterministic seed mixer (one splitmix64-style round).

    Children use slot 0 (left) and 1 (right) with their parent's seed and
    depth, the node's fallback draw uses slot 2, and boosting stages use
    slot 3 with the stage index as ``level``.  Tree shape is therefore
    reproducible independent of traversal order.  The step-size ablation
    (:func:`hingetree.cli.ablate_step_rows`) uses slot 4 for each repeat's
    seed (the repeat index as ``level``), and slots 5 and 6, at level 0 of
    that seed, for the repeat's train/test split and its split seed.
    """
    z = (
        (seed & _MASK64) * 0x9E3779B97F4A7C15
        + (level & _MASK64) * 0xBF58476D1CE4E5B9
        + slot
        + 1
    ) & _MASK64
    z ^= z >> 30
    z = (z * 0xBF58476D1CE4E5B9) & _MASK64
    z ^= z >> 27
    z = (z * 0x94D049BB133111EB) & _MASK64
    z ^= z >> 31
    return z


@dataclass(frozen=True)
class TreeConfig:
    """Tree-level hyperparameters.

    ``d_max`` counts edges, with the root at depth 0 (0 means a single
    leaf).  ``n_min`` is the minimum sample count for a node to be split
    and for each resulting child.  ``tau_rmse`` compares against the
    unpenalized RMSE of the node's ridge-fit leaf model.  A split that
    does not converge, or that leaves a child below ``n_min``, is replaced
    by :func:`~hingetree.split.median_fallback`.
    """

    d_max: int = 6
    n_min: int = 5
    tau_rmse: float = 0.03
    split: SplitConfig = field(default_factory=SplitConfig)
    collect_traces: bool = False

    def __post_init__(self):
        if self.d_max < 0:
            raise ValueError("d_max must be non-negative")
        if self.n_min < 2 * self.split.min_subset:
            raise ValueError("n_min must be at least 2 * min_subset")
        if self.tau_rmse < 0:
            raise ValueError("tau_rmse must be non-negative")


@dataclass
class Leaf:
    theta: np.ndarray
    n_train: int


@dataclass
class Internal:
    split: SplitOutcome
    left: "TreeNode"
    right: "TreeNode"


TreeNode = Leaf | Internal


@dataclass
class TrainStats:
    n_leaves: int
    depth: int
    n_splits: int
    n_fallbacks: int
    total_split_iterations: int
    total_variant_iterations: int
    per_node_traces: list[list[float]] | None = None

    @property
    def fallback_rate(self) -> float:
        return self.n_fallbacks / self.n_splits if self.n_splits else 0.0


@dataclass
class HrtModel:
    root: TreeNode
    d: int
    config: TreeConfig
    stats: TrainStats
    preprocess: dict | None = None


class _Counters:
    __slots__ = ("winner_iters", "variant_iters", "traces")

    def __init__(self, collect_traces: bool):
        self.winner_iters = 0
        self.variant_iters = 0
        self.traces: list[list[float]] | None = [] if collect_traces else None


def _first_mask(split: SplitOutcome, X: np.ndarray) -> np.ndarray:
    """Which rows of ``X`` the split sends to its first branch."""
    p, q = _first_pair(split.kind, split.theta1, split.theta2)
    return affine(X, p) >= affine(X, q)


def _grow(X, y, depth, seed, config: TreeConfig, acc: _Counters) -> TreeNode:
    n = X.shape[0]
    theta_leaf = fit_or_mean(augment(X), y, config.split.ridge_alpha)
    rmse = float(np.sqrt(np.mean((y - affine(X, theta_leaf)) ** 2)))
    if depth >= config.d_max or n < config.n_min or rmse < config.tau_rmse:
        return Leaf(theta=theta_leaf, n_train=n)

    node_cfg = replace(config.split, seed=seed)
    outcome = select_split(X, y, node_cfg)
    acc.winner_iters += outcome.iterations
    if outcome.variant_iterations is not None:
        acc.variant_iters += sum(outcome.variant_iterations)
    if acc.traces is not None:
        acc.traces.append(list(outcome.objective_trace))

    first = _first_mask(outcome, X)
    n_first = int(np.count_nonzero(first))
    # A split that cannot produce two viable children stalls growth just
    # like non-convergence does, so both symptoms route to the fallback.
    stalled = (not outcome.converged) or min(n_first, n - n_first) < config.n_min
    if stalled:
        try:
            outcome = median_fallback(X, seed=derive_seed(seed, depth, 2))
        except AllFeaturesConstant:
            return Leaf(theta=theta_leaf, n_train=n)
        first = _first_mask(outcome, X)
        n_first = int(np.count_nonzero(first))

    if min(n_first, n - n_first) < config.n_min:
        # Ineffective split: keep the node's own fit.
        return Leaf(theta=theta_leaf, n_train=n)

    second = ~first
    left = _grow(X[first], y[first], depth + 1, derive_seed(seed, depth, 0), config, acc)
    right = _grow(X[second], y[second], depth + 1, derive_seed(seed, depth, 1), config, acc)
    return Internal(split=outcome, left=left, right=right)


def _structure(node: TreeNode, depth: int = 0):
    if isinstance(node, Leaf):
        return 1, depth, 0, 0
    l_leaves, l_depth, l_splits, l_fb = _structure(node.left, depth + 1)
    r_leaves, r_depth, r_splits, r_fb = _structure(node.right, depth + 1)
    fb = 1 if node.split.used_fallback else 0
    return (
        l_leaves + r_leaves,
        max(l_depth, r_depth),
        l_splits + r_splits + 1,
        l_fb + r_fb + fb,
    )


def train_stats(root: TreeNode, split_iterations: int = 0, variant_iterations: int = 0,
                per_node_traces: list[list[float]] | None = None) -> TrainStats:
    """The tree's structural counts plus the optimizer counters from its training."""
    n_leaves, depth, n_splits, n_fallbacks = _structure(root)
    return TrainStats(
        n_leaves=n_leaves,
        depth=depth,
        n_splits=n_splits,
        n_fallbacks=n_fallbacks,
        total_split_iterations=split_iterations,
        total_variant_iterations=variant_iterations,
        per_node_traces=per_node_traces,
    )


def build_tree(X, y, config: TreeConfig | None = None) -> HrtModel:
    """Fit a hinge regression tree.

    Deterministic for identical (X, y, config): node seeds are derived
    from ``config.split.seed`` through :func:`derive_seed`.
    """
    if config is None:
        config = TreeConfig()
    X, y = check_training(X, y)
    acc = _Counters(config.collect_traces)
    root = _grow(X, y, 0, config.split.seed & _MASK64, config, acc)
    stats = train_stats(root, acc.winner_iters, acc.variant_iters, acc.traces)
    return HrtModel(root=root, d=X.shape[1], config=config, stats=stats)


def _check_width(X: np.ndarray, d: int) -> np.ndarray:
    if X.ndim != 2:
        raise DimensionMismatch("expected a 2-D feature matrix")
    if X.shape[0] and X.shape[1] != d:
        raise DimensionMismatch(f"expected {d} features, got {X.shape[1]}")
    return X


def check_features(X, d: int) -> np.ndarray:
    """``X`` as a finite float matrix of ``d`` columns, or a typed error.

    Raises :class:`DimensionMismatch` for another shape (a matrix with no
    rows is accepted at any width) and :class:`NonFiniteInput` when a value
    is NaN or infinite.
    """
    X = _check_width(np.asarray(X, dtype=float), d)
    if not np.isfinite(X).all():
        raise NonFiniteInput("feature matrix contains a NaN or infinite value")
    return X


def check_row(x, d: int) -> list[float]:
    """One sample as ``d`` finite Python floats, or the errors of :func:`check_features`.

    The finiteness test runs on the floats of the list, which is several
    times cheaper than ``np.isfinite`` on a one-row array.
    """
    row = _check_width(np.asarray(x, dtype=float).reshape(1, -1), d)[0].tolist()
    for value in row:
        if not isfinite(value):
            raise NonFiniteInput("sample contains a NaN or infinite value")
    return row


def predict_row(node: TreeNode, x: list[float]) -> float:
    """Route one checked sample, given as Python floats, from ``node`` to a leaf value.

    Every hinge value and the leaf value come from
    :func:`~hingetree.linear.affine_row`, the one-row form of the batch
    kernel.
    """
    while isinstance(node, Internal):
        o = node.split
        p, q = _first_pair(o.kind, o.theta1, o.theta2)
        node = node.left if affine_row(x, p.tolist()) >= affine_row(x, q.tolist()) else node.right
    return affine_row(x, node.theta.tolist())


def predict(model: HrtModel, x) -> float:
    """Route one sample to its leaf and evaluate the leaf model.

    Ties on a split hyperplane go to the first branch, matching training.
    The affine arithmetic is :func:`~hingetree.linear.affine_row`: a
    left-to-right float accumulation of ``x[j] * w[j]`` followed by the
    bias, so the result equals :func:`predict_batch` on the same row bit
    for bit.  A sample holding NaN or an infinity raises
    :class:`NonFiniteInput` (:func:`check_row`).
    """
    return predict_row(model.root, check_row(x, model.d))


def _flatten(roots: list[TreeNode]):
    """The trees under ``roots`` as preorder node tables for :func:`_route`.

    Returns ``(coef_p, coef_q, left, right, starts, levels)``.  Column i of
    ``coef_p`` and ``coef_q``, both of shape ``(d+1, nodes)``, holds node
    i's ordered hinge pair (:func:`~hingetree.split._first_pair`), or for a
    leaf its model twice.  ``left[i]`` and ``right[i]`` are node i's first
    and second child; a leaf routes to itself.  ``starts`` holds each
    tree's root index and ``levels`` the deepest leaf's depth.
    """
    coef_p, coef_q, left, right = [], [], [], []
    levels = 0

    def visit(node: TreeNode, depth: int) -> int:
        nonlocal levels
        i = len(left)
        left.append(i)
        right.append(i)
        if isinstance(node, Leaf):
            coef_p.append(node.theta)
            coef_q.append(node.theta)
            levels = max(levels, depth)
        else:
            p, q = _first_pair(node.split.kind, node.split.theta1, node.split.theta2)
            coef_p.append(p)
            coef_q.append(q)
            left[i] = visit(node.left, depth + 1)
            right[i] = visit(node.right, depth + 1)
        return i

    starts = np.array([visit(root, 0) for root in roots], dtype=np.intp)
    return (np.array(coef_p).T.copy(), np.array(coef_q).T.copy(),
            np.array(left, dtype=np.intp), np.array(right, dtype=np.intp), starts, levels)


def _route(roots: list[TreeNode], X: np.ndarray):
    """Yield each tree's predictions on checked ``X``, in the order of ``roots``.

    Level-wise routing: the trees of a group are flattened (:func:`_flatten`)
    and every (row, tree) pair starts at its tree's root.  Each step gathers
    the pair's node coefficients, evaluates both hinge sides with
    :func:`~hingetree.linear.affine` and moves the pair to the chosen child;
    after as many steps as the deepest leaf's depth every pair sits on its
    leaf, whose model gives the value.  Pairs are processed in blocks of at
    most ``_BLOCK`` (a group holds one tree when the batch alone exceeds
    it), so the temporaries stay bounded whatever the batch and ensemble
    sizes.  Each value is computed with :func:`predict_row`'s operations.
    """
    n = X.shape[0]
    group = max(1, _BLOCK // max(n, 1))
    for g in range(0, len(roots), group):
        coef_p, coef_q, left, right, starts, levels = _flatten(roots[g:g + group])
        values = np.empty((n, starts.size))
        rows = max(1, _BLOCK // starts.size)
        for r in range(0, n, rows):
            block = X[r:r + rows]
            node = starts[None, :]  # every row at its trees' roots; broadcasts in affine
            for _ in range(levels):
                # take() gathers several times faster than fancy indexing.
                p = affine(block, coef_p.take(node, axis=1))
                q = affine(block, coef_q.take(node, axis=1))
                node = np.where(p >= q, left.take(node), right.take(node))
            values[r:r + rows] = affine(block, coef_p.take(node, axis=1))
        yield from values.T


def predict_batch(model: HrtModel, X) -> np.ndarray:
    """Predict every row of ``X``; bit-identical to :func:`predict` per row.

    The rows go through the batch router (:func:`_route`) with this one
    tree: all rows move down the tree together, one level per step, and
    the leaves are evaluated at the end.  The kernel's fixed column order
    makes every value independent of the batch size and of which other rows
    share the batch.  A batch holding NaN or an infinity raises
    :class:`NonFiniteInput` (:func:`check_features`).
    """
    return next(_route([model.root], check_features(X, model.d)))


def tree_stats(model: HrtModel) -> TrainStats:
    """Structural statistics recomputed from the stored tree."""
    s = model.stats
    return train_stats(model.root, s.total_split_iterations, s.total_variant_iterations,
                       s.per_node_traces)
