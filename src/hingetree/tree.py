"""Tree construction by one node-expansion step over a preorder stack, plus prediction routing.

:func:`build_tree` checks the training rows and augments them with the
bias column once, at the root, into a :class:`~hingetree.split._Node`;
each child's node is its parent's rows gathered by index
(:func:`~hingetree.split._node_rows`), so no node below the root checks
or augments its rows again.  :func:`_expand` grows one node: it stays a
leaf (its own ridge fit, on the node's augmented rows) when
the depth cap, the minimum sample count, or the RMSE threshold fires;
otherwise the better of the two optimized hinge variants routes its
samples, or a random-feature median split does when optimization stalls.
A node's ridge fit is formed only where it is read: at a leaf, and at a
node whose RMSE a positive ``tau_rmse`` tests, so under ``tau_rmse = 0``
(the boosting default) an internal node fits no model.
:func:`build_tree` pops pending nodes off a stack in preorder, left subtree
before right, and then builds the frozen nodes children first.  A node
keeps only the :class:`~hingetree.split.Split` that routes; the optimizer's
:class:`~hingetree.split.SplitOutcome` goes to :func:`train_stats`.

Every routing test is one rule, :func:`~hingetree.split._first_pair`: a
row takes the first branch iff ``p >= q`` for the node's ordered pair of
hinge sides, each evaluated by :func:`~hingetree.linear.affine` (or its
one-row form :func:`~hingetree.linear.affine_row`).  Training,
:func:`predict` (one row down one tree), the level-wise batch router
:func:`_route` (many rows down one tree or a whole ensemble) and the
one-pass ensemble row (:func:`~hingetree.boost.predict_boost`, which runs
the one-row kernel over every node's coefficients at once) all perform
the same rounded operations, so a training row reaches the leaf that was
fitted on it, and scalar and batch predictions agree bit for bit.

A model's router table is built once, with the model, by :func:`_flatten`
over one walk (:func:`_preorder`) of its trees.  A tree model's first
:func:`predict` copies that table's columns into read-only Python rows,
kept in the model's field :attr:`HrtModel._rows`.  Neither can go
stale: the models, nodes and splits are frozen, with read-only coefficient
copies in the nodes and splits, so a changed tree is a new tree in a new
model.
"""
from __future__ import annotations

from dataclasses import dataclass, field, replace
from math import isfinite
from typing import NamedTuple

import numpy as np

from .errors import AllFeaturesConstant, DimensionMismatch, NonFiniteInput
from .linear import affine, affine_row, fit_or_mean
from .split import (Split, SplitConfig, SplitOutcome, _check_numbers, _checked_node, _first_pair,
                    _Node, _node_rows, _read_only, median_fallback, select_split)

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
    unpenalized RMSE of the node's ridge-fit leaf model: a node that passes
    the depth and sample-count tests stays a leaf when that RMSE is below
    it.  At 0 no RMSE is below it, so no RMSE is computed and a node's leaf
    model is fitted only if the node ends as a leaf.  A split that
    does not converge, or that leaves a child below ``n_min``, is replaced
    by :func:`~hingetree.split.median_fallback`.
    """

    d_max: int = 6
    n_min: int = 5
    tau_rmse: float = 0.03
    split: SplitConfig = field(default_factory=SplitConfig)

    def __post_init__(self):
        _check_numbers(self, ("d_max", "n_min"), ("tau_rmse",))
        if not isinstance(self.split, SplitConfig):
            raise ValueError(f"split must be a SplitConfig, got {self.split!r}")
        if not self.d_max >= 0:
            raise ValueError("d_max must be non-negative")
        if not self.n_min >= 2 * self.split.min_subset:
            raise ValueError("n_min must be at least 2 * min_subset")
        if not self.tau_rmse >= 0:
            raise ValueError("tau_rmse must be non-negative")


@dataclass(frozen=True, eq=False)  # nodes compare and hash by identity, not by their arrays
class Leaf:
    """A leaf's affine model, ``theta`` kept as a read-only float copy."""

    theta: np.ndarray
    n_train: int

    def __post_init__(self):
        object.__setattr__(self, "theta", _read_only(self.theta))


@dataclass(frozen=True, eq=False)
class Internal:
    split: Split
    left: "TreeNode"
    right: "TreeNode"


TreeNode = Leaf | Internal


@dataclass(frozen=True)
class TrainStats:
    """What a tree is and what growing it took; built only by :func:`train_stats`.

    ``n_leaves`` counts the leaves, ``depth`` is the deepest leaf's depth
    (the root is at 0), ``n_splits`` counts the internal nodes (always
    ``n_leaves - 1``) and ``n_fallbacks`` those whose split is a median
    fallback.  ``per_node_traces`` holds the objective trace of every
    :func:`~hingetree.split.select_split` outcome in preorder, left subtree
    before right, splits that a fallback replaced included, so it can be
    longer than ``n_splits``.  ``total_split_iterations`` and
    ``total_variant_iterations`` sum the winning variant's and both variants'
    iterations over the same outcomes.  Only growth has them: a loaded tree's
    counters read 0, its traces ``None``.  The traces are a tuple of tuples,
    so they cannot be edited.
    """

    n_leaves: int
    depth: int
    n_splits: int
    n_fallbacks: int
    total_split_iterations: int
    total_variant_iterations: int
    per_node_traces: tuple[tuple[float, ...], ...] | None = None

    @property
    def fallback_rate(self) -> float:
        return self.n_fallbacks / self.n_splits if self.n_splits else 0.0


@dataclass(frozen=True)
class HrtModel:
    """A fitted tree over ``d`` features.

    ``preprocess`` records a transform fitted with the model (the CLI's
    ``train --standardize``).  Only the CLI applies it; :func:`predict`
    and :func:`predict_batch` take rows already in the model's input space.

    Building the model, by :func:`build_tree`, the loader or a caller,
    flattens the tree once into the batch router's table (:func:`_flatten`).
    The tuples of Python floats that :func:`predict` walks are copied from
    that table by the first :func:`predict` into the declared field
    :attr:`_rows`, None until then, so the instance gains no attribute and
    a model that only routes batches, such as an ensemble's learner, never
    builds them.
    Neither the model nor its tree can change: a changed tree or
    ``preprocess`` is a new model (:func:`dataclasses.replace`).
    """

    root: TreeNode
    d: int
    config: TreeConfig
    stats: TrainStats
    preprocess: dict | None = None
    _table: _Table = field(init=False, repr=False, compare=False)
    # predict()'s rows (see _predict_rows); the first predict() fills the field.
    _rows: tuple | None = field(init=False, repr=False, compare=False, default=None)

    def __post_init__(self):
        object.__setattr__(self, "_table", _flatten([self.root], self.d))
        # In the instance from the start, so that filling it adds no attribute.
        object.__setattr__(self, "_rows", None)


def _predict_rows(table: _Table) -> tuple:
    """``table`` as :func:`predict`'s rows, one per node, in the table's order.

    Row i is ``(p, q, first, second)``: ``p`` and ``q`` are tuples of the
    Python floats in column i of ``coef_p`` and ``coef_q``, and ``first``
    and ``second`` are the indices of node i's children.  A leaf has no
    second side: its row holds its model as ``p``, ``None`` as ``q``, and
    routes to itself.  Row 0 is the root.
    """
    return tuple((p, None if first == i else q, first, second) for i, (p, q, first, second)
                 in enumerate(zip(map(tuple, table.coef_p.T.tolist()),
                                  map(tuple, table.coef_q.T.tolist()),
                                  table.left.tolist(), table.right.tolist())))


def _expand(node: _Node, depth, seed, config: TreeConfig, fits: list[SplitOutcome]):
    """One node's growth step: ``(theta_leaf, split, first)``, a leaf's model or a split and mask.

    ``node`` holds the node's checked rows and their augmented design
    (:class:`~hingetree.split._Node`): the leaf model is fitted on that
    design and :func:`select_split` gets the node as its private ``_node``,
    so nothing here checks or augments the rows again.  A leaf comes back as
    ``(theta_leaf, None, None)`` and an internal node as
    ``(None, split, first)``.  A split routes only if each side of its mask
    ``first`` gets ``n_min`` rows; the median fallback is drawn when the
    hinge did not converge or fails that test.  The leaf model, a ridge fit
    (:func:`~hingetree.linear.fit_or_mean`), is fitted only where it is
    read: at a node that ends as a leaf, and at a node past the depth and
    sample-count tests when ``tau_rmse > 0`` asks for its RMSE, whose fit
    is kept if the node ends as a leaf after all.  A node stopped by depth
    or ``n_min`` takes no RMSE pass.  The node's split config is the tree's
    with the node's seed, ``dataclasses.replace(config.split, seed=seed)``.
    """
    X, y, Xa, _ = node
    n = X.shape[0]
    if depth >= config.d_max or n < config.n_min:
        return _leaf_model(Xa, y, config), None, None
    theta_leaf = None
    if config.tau_rmse > 0:
        theta_leaf = _leaf_model(Xa, y, config)
        rmse = float(np.sqrt(np.mean((y - affine(X, theta_leaf)) ** 2)))
        if rmse < config.tau_rmse:
            return theta_leaf, None, None
    outcome = select_split(X, y, replace(config.split, seed=seed), _node=node)
    fits.append(outcome)
    for hinge in (True, False) if outcome.converged else (False,):
        try:
            split = (Split(kind=outcome.kind, theta1=outcome.theta1, theta2=outcome.theta2) if hinge
                     else median_fallback(X, seed=derive_seed(seed, depth, 2)))
        except AllFeaturesConstant:
            break
        p, q = _first_pair(split.kind, split.theta1, split.theta2)
        first = affine(X, p) >= affine(X, q)
        if config.n_min <= np.count_nonzero(first) <= n - config.n_min:
            return None, split, first
    return (_leaf_model(Xa, y, config) if theta_leaf is None else theta_leaf), None, None


def _leaf_model(Xa, y, config: TreeConfig) -> np.ndarray:
    """The node's leaf model: the ridge fit of ``y`` on its augmented rows ``Xa``."""
    return fit_or_mean(Xa, y, config.split.ridge_alpha)


def _preorder(root: TreeNode):
    """Yield ``(node, depth)`` for every node under ``root``, parents first, left before right."""
    stack = [(root, 0)]
    while stack:
        node, depth = stack.pop()
        yield node, depth
        if isinstance(node, Internal):
            stack.append((node.right, depth + 1))
            stack.append((node.left, depth + 1))


def train_stats(root: TreeNode, fits: list[SplitOutcome] | None = None) -> TrainStats:
    """Build :class:`TrainStats` from one walk of the tree under ``root`` and its growth.

    ``fits`` lists the growth's :func:`~hingetree.split.select_split`
    outcomes in order; a loaded tree has none to pass.
    """
    n_leaves = depth = n_fallbacks = 0
    for node, at in _preorder(root):
        if isinstance(node, Leaf):
            n_leaves += 1
            depth = max(depth, at)
        elif node.split.used_fallback:
            n_fallbacks += 1
    traces = None if fits is None else tuple(tuple(o.objective_trace) for o in fits)
    fits = fits or ()
    return TrainStats(
        n_leaves=n_leaves,
        depth=depth,
        n_splits=n_leaves - 1,
        n_fallbacks=n_fallbacks,
        total_split_iterations=sum(o.iterations for o in fits),
        total_variant_iterations=sum(sum(o.variant_iterations or ()) for o in fits),
        per_node_traces=traces,
    )


def build_tree(X, y, config: TreeConfig | None = None) -> HrtModel:
    """Fit a hinge regression tree.

    Deterministic for identical (X, y, config): node seeds are derived
    from ``config.split.seed`` through :func:`derive_seed`.  The same
    inputs and seed give the same bits for one NumPy, one BLAS kernel and
    one BLAS thread count; another of any of these can round the solves
    and products differently, and so fit another model.  The rows are
    checked (:func:`~hingetree.linear.check_training`) and augmented once,
    into the root's node (:func:`~hingetree.split._checked_node`); a
    child's node gathers its parent's rows by index, the first side's or
    the second's in their order (:func:`~hingetree.split._node_rows`).
    """
    if config is None:
        config = TreeConfig()
    # A LIFO stack with the right child pushed first expands the nodes in preorder.
    pending, expanded, fits = [(_checked_node(X, y), 0, config.split.seed & _MASK64)], [], []
    d = pending[0][0].X.shape[1]
    while pending:
        node, depth, seed = pending.pop()
        theta_leaf, split, first = _expand(node, depth, seed, config, fits)
        expanded.append((theta_leaf, split, node.y.shape[0]))
        if split is not None:
            for slot, side in ((1, ~first), (0, first)):
                pending.append((_node_rows(node, side.nonzero()[0]), depth + 1,
                                derive_seed(seed, depth, slot)))
    built: list[TreeNode] = []
    for theta_leaf, split, n in reversed(expanded):  # children first, the left subtree on top
        built.append(Leaf(theta=theta_leaf, n_train=n) if split is None
                     else Internal(split=split, left=built.pop(), right=built.pop()))
    return HrtModel(root=built[0], d=d, config=config, stats=train_stats(built[0], fits))


def check_features(X, d: int) -> np.ndarray:
    """``X`` as a finite float matrix of ``d`` columns, or a typed error.

    Raises :class:`DimensionMismatch` for another shape (a matrix with no
    rows is accepted at any width) and :class:`NonFiniteInput` when a value
    is NaN or infinite.
    """
    X = np.asarray(X, dtype=float)
    if X.ndim != 2:
        raise DimensionMismatch("expected a 2-D feature matrix")
    if X.shape[0] and X.shape[1] != d:
        raise DimensionMismatch(f"expected {d} features, got {X.shape[1]}")
    if not np.isfinite(X).all():
        raise NonFiniteInput("feature matrix contains a NaN or infinite value")
    return X


def check_row(x, d: int) -> list[float]:
    """One sample as ``d`` finite Python floats, or the errors of :func:`check_features`.

    A sample is a sequence of ``d`` values or a ``(1, d)`` row; any other
    shape, a column or a ``(1, 1, d)`` array among them, raises
    :class:`DimensionMismatch` even when it holds ``d`` values.  The
    finiteness test runs on the floats of the list, which is several times
    cheaper than ``np.isfinite`` on a one-row array.
    """
    x = np.asarray(x, dtype=float)
    if x.shape not in ((d,), (1, d)):
        raise DimensionMismatch(f"expected one sample of {d} features, got shape {x.shape}")
    row = x.reshape(d).tolist()
    for value in row:
        if not isfinite(value):
            raise NonFiniteInput("sample contains a NaN or infinite value")
    return row


def predict(model: HrtModel, x) -> float:
    """Route one sample to its leaf and evaluate the leaf model.

    The walk reads only the model's rows (:attr:`HrtModel._rows`, built on
    the first call): from row 0 it moves to a node's first child iff
    ``affine_row(x, p) >= affine_row(x, q)``, so ties on a split hyperplane
    go first, matching training, and a side that evaluates to NaN sends
    the row second.  ``p`` and ``q`` hold the bits of the node's
    coefficients, and the affine arithmetic is
    :func:`~hingetree.linear.affine_row`: a left-to-right float
    accumulation of ``x[j] * w[j]`` followed by the bias, so the result
    equals :func:`predict_batch` on the same row bit for bit.  A sample
    holding NaN or an infinity raises :class:`NonFiniteInput`
    (:func:`check_row`).  ``x`` is used as given: ``model.preprocess`` is
    applied only by the CLI.
    """
    x = check_row(x, model.d)
    rows = model._rows
    if rows is None:
        rows = _predict_rows(model._table)
        object.__setattr__(model, "_rows", rows)
    p, q, first, second = rows[0]
    while q is not None:
        p, q, first, second = rows[first if affine_row(x, p) >= affine_row(x, q) else second]
    return affine_row(x, p)


class _Table(NamedTuple):
    """Trees as preorder node tables for :func:`_route`; built only by :func:`_flatten`.

    Column i of ``coef_p`` and ``coef_q``, both of shape ``(d+1, nodes)``,
    holds node i's ordered hinge pair (:func:`~hingetree.split._first_pair`),
    or for a leaf its model twice.  ``left[i]`` and ``right[i]`` are node
    i's first and second child; a leaf routes to itself.  ``starts`` holds
    each tree's root index and ``deepest``, a Python int, the depth of the
    deepest leaf of any tree (0 without trees).

    A tree model also copies its table into :func:`predict`'s Python rows
    (:attr:`HrtModel._rows`); an ensemble builds none for its own table, since
    :func:`~hingetree.boost.predict_boost` evaluates a row on all of it at
    once, with one :func:`~hingetree.linear.affine_row` call over the rows
    of ``coef_p`` and one over those of ``coef_q``.
    """

    coef_p: np.ndarray
    coef_q: np.ndarray
    left: np.ndarray
    right: np.ndarray
    starts: np.ndarray
    deepest: int


def _flatten(roots: list[TreeNode], d: int) -> _Table:
    """The trees under ``roots``, in order, as one :class:`_Table` over ``d`` features.

    Each tree is walked once, by :func:`_preorder`, and each internal
    node's children are found by their index in the walk (nodes hash by
    identity).  :class:`HrtModel` passes its root and
    :class:`~hingetree.boost.BoostModel` its learners' roots, once, when
    the model is built; no prediction builds a table.  A node whose affine
    models do not all hold d+1 coefficients (a hand-built model of the
    wrong ``d``, say) raises :class:`DimensionMismatch` before any table
    is formed.
    """
    nodes, starts, deepest = [], [], 0
    for root in roots:
        starts.append(len(nodes))
        for node, depth in _preorder(root):
            nodes.append(node)
            deepest = max(deepest, depth)  # the deepest node is a leaf
    index = {node: i for i, node in enumerate(nodes)}
    pairs = [(n.theta, n.theta) if isinstance(n, Leaf)
             else _first_pair(n.split.kind, n.split.theta1, n.split.theta2) for n in nodes]
    for theta in (theta for pair in pairs for theta in pair):
        if theta.shape != (d + 1,):
            found = theta.size if theta.ndim == 1 else f"shape {theta.shape}"
            raise DimensionMismatch(
                f"expected {d + 1} coefficients per affine model (d = {d}), found {found}")
    children = [(i, i) if isinstance(n, Leaf) else (index[n.left], index[n.right])
                for i, n in enumerate(nodes)]
    coefs = np.array(pairs, dtype=float).reshape(-1, 2, d + 1).transpose(1, 2, 0).copy()
    links = np.array(children, dtype=np.intp).reshape(-1, 2).T.copy()
    return _Table(coefs[0], coefs[1], links[0], links[1], np.array(starts, dtype=np.intp),
                  deepest)


def _route(table: _Table, X: np.ndarray):
    """Yield each tree's predictions on checked ``X``, in the order of ``table``'s trees.

    The batch router, behind :func:`predict_batch` and the ensemble's batch
    functions; one ensemble row instead takes one pass over the whole table
    (:func:`~hingetree.boost.predict_boost`).  Routing is level-wise, over
    the table built with the model (:func:`_flatten`): every (row, tree)
    pair starts at its tree's root.  Each step gathers the
    pair's node coefficients, evaluates both hinge sides with
    :func:`~hingetree.linear.affine` and moves the pair to the chosen child;
    a leaf routes to itself, so after the table's ``deepest`` steps every
    pair sits on its leaf, whose model gives the value.  Pairs are processed in blocks
    of at most ``_BLOCK`` (a group holds one tree when the batch alone
    exceeds it), so the temporaries stay bounded whatever the batch and
    ensemble sizes.  Each value is computed with :func:`predict`'s operations.
    """
    coef_p, coef_q, left, right, starts, deepest = table
    n = X.shape[0]
    group = max(1, _BLOCK // max(n, 1))
    for g in range(0, starts.size, group):
        roots = starts[g:g + group]
        values = np.empty((n, roots.size))
        rows = max(1, _BLOCK // roots.size)
        # An overflowing node gives +-inf or NaN silently, as in predict().
        with np.errstate(over="ignore", invalid="ignore"):
            for r in range(0, n, rows):
                block = X[r:r + rows]
                node = roots[None, :]  # every row at its trees' roots; broadcasts in affine
                for _ in range(deepest):
                    # take() gathers several times faster than fancy indexing.
                    p = affine(block, coef_p.take(node, axis=1))
                    q = affine(block, coef_q.take(node, axis=1))
                    node = np.where(p >= q, left.take(node), right.take(node))
                values[r:r + rows] = affine(block, coef_p.take(node, axis=1))
        yield from values.T


def predict_batch(model: HrtModel, X) -> np.ndarray:
    """Predict every row of ``X``; bit-identical to :func:`predict` per row.

    The rows go through the batch router (:func:`_route`) with this one
    tree's table, flattened when the model was built: all rows move down
    the tree together, one level per step, and the leaves are evaluated at
    the end.  The kernel's fixed column order makes every value
    independent of the batch size and of which other rows share the batch.
    A batch holding NaN or an infinity raises :class:`NonFiniteInput`
    (:func:`check_features`).  ``X`` is used as given: ``model.preprocess``
    is applied only by the CLI.
    """
    return next(_route(model._table, check_features(X, model.d)))

