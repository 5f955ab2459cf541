"""Oblique node splits: two linear models joined by a max or min hinge.

A split is learned by alternating between partitioning the node's samples
with the current hinge and refitting each side by (ridge) least squares.
The damped update ``theta <- theta + mu * (theta_fit - theta)`` is exactly
a damped Newton step on the node objective, because the Gauss-Newton
Hessian is exact for a piecewise-linear model.  ``mu`` may be a fixed
damping factor in (0, 1] or ``"auto"``, a backtracking search that starts
at ``mu0`` and shrinks geometrically until the objective strictly drops.
The body of :func:`find_optimal_split`'s loop is that iteration, the only
one in the package: one damped Newton step, fixed or line-searched, is a
call with ``t_max=1`` and a ``start``, and the node objective at
``start`` is that call's ``objective_trace[0]``.  The loop refits each
distinct partition of a node once and never writes the targets it keeps
(the cache rule, :class:`_Node`).  A row takes the first side by one tie
rule, :func:`_first_pair`, which also orders the pair whose difference is
a split's routing hyperplane (:attr:`Split.direction`).
Both sides' parameters are held as one ``(2, d+1)`` array, so a step, a
line-search candidate and a parameter change are one set of elementwise
operations; every value keeps the bits of the per-side arithmetic,
because the side values stay two matvecs and the objective and change
norms stay dot products.  Those products go through ``ndarray.dot``,
which makes the BLAS call of the ``@`` operator (``dgemv``, ``ddot``)
without its ufunc dispatch, and so has its bits
(``tests/test_linear.py::TestDotMatchesMatmul`` pins this).
Every function that takes samples and targets checks them with
:func:`~hingetree.linear.check_training` first, unless it is handed a
node that is already checked.  :func:`select_split` hands one node, its
checked and augmented design with one refit cache (:class:`_Node`), to
the initialization and both variants it runs, so a node's partitions are
each solved once; the tree layer builds that node once per tree, at the
root, and gathers each child's from it (:func:`_node_rows`).  Medians,
of a pivot, a margin or a fallback threshold, come from one partition
(:func:`_median`).
"""
from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from enum import Enum
from typing import NamedTuple

import numpy as np

from .errors import (AllFeaturesConstant, DegenerateSystem, DimensionMismatch, NonFiniteInput,
                     TooFewSamples)
from .linear import augment, check_training, fit_or_mean, ridge_solve, ridge_solve_pair

# Two parameter vectors closer than this (max-norm) count as identical
# during initialization and trigger a symmetry-breaking perturbation.
DIVERSITY_TOL = 1e-9


def _check_numbers(config, integers, reals) -> None:
    """Raise ``ValueError`` naming the first field of ``config`` that is not a number of its kind.

    ``integers`` take a ``numbers.Integral`` and ``reals`` a finite ``numbers.Real``; a bool is
    neither.  Exact ints and floats skip the ABC checks, the slow part of the test.
    A value of any other type, a NumPy scalar say, is stored as ``int`` or ``float`` so that
    the config writes to JSON; an int in a real field stays an int.
    """
    for name in (*integers, *reals):
        value = getattr(config, name)
        kind, abc = (int, numbers.Integral) if name in integers else (float, numbers.Real)
        if (type(value) is not kind and (isinstance(value, bool) or not isinstance(value, abc))
                or not -math.inf < value < math.inf):
            raise ValueError(f"{name} must be {'an integer' if kind is int else 'a finite number'}"
                             f", got {value!r}")
        if type(value) not in (int, float):
            object.__setattr__(config, name, kind(value))


def _read_only(theta) -> np.ndarray:
    """A read-only float copy of the coefficient vector ``theta``."""
    theta = np.array(theta, dtype=float)
    theta.flags.writeable = False
    return theta


class HingeKind(Enum):
    MAX = "max"
    MIN = "min"


@dataclass(frozen=True)
class SplitConfig:
    """Node-split hyperparameters.

    ``step`` is either a fixed damping factor in (0, 1] or the string
    ``"auto"`` for backtracking line search (candidates ``mu0 * beta**s``,
    at most ``max_backtracks`` of them).  ``epsilon`` is the convergence
    tolerance on the summed parameter change per iteration.  Sides of a
    partition with fewer than ``min_subset`` samples keep their current
    parameters for that step.
    """

    t_max: int = 100
    step: float | str = 0.01
    mu0: float = 1.0
    beta: float = 0.5
    max_backtracks: int = 30
    epsilon: float = 0.03
    ridge_alpha: float = 1e-3
    min_subset: int = 2
    seed: int = 0

    def __post_init__(self):
        fixed = () if isinstance(self.step, str) else ("step",)
        _check_numbers(self, ("t_max", "max_backtracks", "min_subset", "seed"),
                       ("mu0", "beta", "epsilon", "ridge_alpha", *fixed))
        if not self.t_max >= 1:
            raise ValueError("t_max must be a positive integer")
        if not fixed:
            if self.step != "auto":
                raise ValueError("step must be a damping factor in (0, 1] or 'auto'")
        elif not 0.0 < self.step <= 1.0:
            raise ValueError("fixed step must lie in (0, 1]")
        if not self.mu0 > 0.0:
            raise ValueError("mu0 must be positive")
        if not 0.0 < self.beta < 1.0:
            raise ValueError("beta must lie in (0, 1)")
        if not self.max_backtracks >= 1:
            raise ValueError("max_backtracks must be a positive integer")
        if not self.epsilon > 0.0:
            raise ValueError("epsilon must be positive")
        if not self.ridge_alpha >= 0.0:
            raise ValueError("ridge_alpha must be non-negative")
        if not self.min_subset >= 1:
            raise ValueError("min_subset must be a positive integer")

    @property
    def auto_step(self) -> bool:
        return self.step == "auto"


@dataclass(frozen=True, eq=False)  # compares by identity, not by its arrays
class Split:
    """How a node routes: a row ``x`` goes first iff ``affine(x, direction) >= 0``.

    ``direction`` is the routing hyperplane ``p - q`` for
    ``(p, q) = _first_pair(kind, theta1, theta2)``, formed once, here, and
    read by training and by every router, so ties go first and a NaN value
    sends a row second.  ``theta1``, ``theta2`` and ``direction`` are kept
    as read-only float copies.  A median fallback split
    (:func:`median_fallback`) also records its feature and threshold.
    A ``kind`` that is not a :class:`HingeKind` raises ``TypeError``, sides
    of two shapes :class:`DimensionMismatch`, and a difference that is not
    finite (two sides that overflow it) :class:`NonFiniteInput`.
    """

    kind: HingeKind
    theta1: np.ndarray
    theta2: np.ndarray
    fallback_feature: int | None = None
    fallback_threshold: float | None = None
    direction: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        _hinge(self.kind)  # a kind that is not a HingeKind raises TypeError
        theta1, theta2 = _read_only(self.theta1), _read_only(self.theta2)
        if theta1.shape != theta2.shape:
            raise DimensionMismatch(f"the sides' coefficients differ in shape: {theta1.shape} "
                                    f"and {theta2.shape}")
        p, q = _first_pair(self.kind, theta1, theta2)
        with np.errstate(over="ignore", invalid="ignore"):
            direction = _read_only(p - q)
        if not np.isfinite(direction).all():
            raise NonFiniteInput("split direction p - q is not finite: the sides' "
                                 "coefficients overflow it")
        object.__setattr__(self, "theta1", theta1)
        object.__setattr__(self, "theta2", theta2)
        object.__setattr__(self, "direction", direction)

    @property
    def used_fallback(self) -> bool:
        return self.fallback_feature is not None


@dataclass
class SplitOutcome:
    """How optimizing one hinge split went; a tree keeps a :class:`Split` of it, not this record.

    ``objective_trace`` holds the objective value at initialization and
    after every accepted iteration (length ``iterations + 1``).
    ``mu_trace`` and ``partition_sizes`` are per-iteration diagnostics;
    ``variant_iterations`` is filled by :func:`select_split` with the raw
    (max-variant, min-variant) iteration counts.
    """

    theta1: np.ndarray
    theta2: np.ndarray
    kind: HingeKind
    converged: bool
    iterations: int
    objective_trace: list[float]
    mu_trace: list[float] = field(default_factory=list)
    partition_sizes: list[tuple[int, int]] = field(default_factory=list)
    variant_iterations: tuple[int, int] | None = None


def _first_pair(kind, a, b):
    """The tie rule: ``(p, q)`` such that a row takes the first branch iff ``p >= q``.

    ``a`` and ``b`` belong to the first and second side (their values, or
    their coefficient vectors).  The max variant sends ``a >= b`` first and
    the min variant ``a <= b``, which is ``b >= a``, so a min pair comes
    back swapped.  Ties go to the first branch for both variants, and a
    NaN value sends a row to the second.  The split loop's masks take this
    one tie rule on the side values, and the tree routes by its pair of
    vectors, as ``affine(x, p - q) >= 0`` (:attr:`Split.direction`).
    """
    return (a, b) if kind is HingeKind.MAX else (b, a)


def _hinge(kind):
    """The ufunc that joins a ``kind`` hinge's side values: ``np.maximum`` or ``np.minimum``.

    A caller resolves it once per call, not per iteration.  Any ``kind``
    but a :class:`HingeKind` raises ``TypeError``.
    """
    if kind is HingeKind.MAX:
        return np.maximum
    if kind is HingeKind.MIN:
        return np.minimum
    raise TypeError(f"kind must be a HingeKind, got {kind!r}")


def _evaluate(Xa, y, th, envelope):
    """Objective at the stacked parameters ``th`` = (theta1, theta2), with the side values a and b.

    ``a = Xa.dot(th[0])`` and ``b = Xa.dot(th[1])`` are two matvecs, not
    one product with ``th.T``, which would round differently; they are
    returned so that the caller can partition by them without recomputing
    either.  ``envelope`` joins the side values, ``np.maximum`` or ``np.minimum``.
    """
    a = Xa.dot(th[0])
    b = Xa.dot(th[1])
    r = y - envelope(a, b)
    return 0.5 * float(r.dot(r)), a, b


def _check_pair(pair, d: int) -> np.ndarray:
    """``pair`` = (theta1, theta2) as one ``(2, d+1)`` float array, a copy, or a typed error.

    Raises :class:`DimensionMismatch` unless ``pair`` holds two vectors of
    length d+1, and :class:`NonFiniteInput` if a coefficient is NaN or
    infinite.
    """
    thetas = [np.asarray(theta, dtype=float) for theta in pair]
    if len(thetas) != 2 or any(theta.shape != (d + 1,) for theta in thetas):
        raise DimensionMismatch(f"expected two coefficient vectors of length {d + 1}")
    th = np.array(thetas)
    if not np.isfinite(th).all():
        raise NonFiniteInput("coefficient vectors contain a NaN or infinite value")
    return th


def _fit_subset(Xa, y, idx, alpha, min_subset, current):
    # Undersized or degenerate sides keep their parameters for this step.
    if idx.size < min_subset:
        return current
    try:
        return ridge_solve(Xa.take(idx, axis=0), y.take(idx), alpha)
    except DegenerateSystem:
        return current


def _refit(Xa, y, s1, s2, th, alpha, min_subset):
    """Both sides' ridge targets for the partition (s1, s2) of the augmented design.

    Returns the ``(2, d+1)`` targets, stacked like ``th``, and whether
    they depend on the partition alone.  When both sides are large enough
    the two systems share one stacked factorization, whose solution comes
    back as is.  If that fails, each side is fitted on its own, with the
    jitter retry and the keep-current rule of a single fit; targets in
    which a side kept its row of ``th`` do not depend on the partition
    alone.
    """
    if s1.size >= min_subset and s2.size >= min_subset:
        pair = ridge_solve_pair(Xa.take(s1, axis=0), y.take(s1),
                                Xa.take(s2, axis=0), y.take(s2), alpha)
        if pair is not None:
            return pair, True
    theta1, theta2 = th  # the views _fit_subset returns to keep a side
    f1 = _fit_subset(Xa, y, s1, alpha, min_subset, theta1)
    f2 = _fit_subset(Xa, y, s2, alpha, min_subset, theta2)
    return np.array((f1, f2)), f1 is not theta1 and f2 is not theta2


class _Node(NamedTuple):
    """One node's checked samples, their augmented design, and the refit targets solved on them.

    Built by :func:`_checked_node` from unchecked samples, or by
    :func:`_node_rows` from some rows of a node already built.  The tree
    builds its root's once per tree and each child's from its parent's,
    and passes each to :func:`select_split`; without one,
    :func:`select_split` builds its own.  Either way it goes to
    :func:`initialize_params` and to both :func:`find_optimal_split`
    variants; those called alone build one per call.  ``solved`` is read
    and filled by the loop of :func:`find_optimal_split` alone, the one
    Newton iteration.

    The cache rule: each distinct partition is refitted once per node,
    whichever side is first.  Targets that depended on the partition
    alone (:func:`_refit`) are kept in ``solved`` by the bytes of their
    mask; a mask that misses reuses its complement's targets with the two
    rows swapped, and keeps them under its own bytes.  Each row of a
    stacked solve has the bits of a single solve, so either way they are
    the bits a refit would return.  Targets are never written (a unit step
    lands on a copy), and one config serves all of a node's iterations.
    """

    X: np.ndarray
    y: np.ndarray
    Xa: np.ndarray
    solved: dict[bytes, np.ndarray]


def _checked_node(X, y) -> _Node:
    """The checked (:func:`~hingetree.linear.check_training`) and augmented node, with no refits."""
    X, y = check_training(X, y)
    return _Node(X, y, augment(X), {})


def _node_rows(node: _Node, rows: np.ndarray) -> _Node:
    """The node of ``node``'s rows at the indices ``rows``, in that order, with no refits.

    Each array is gathered by ``take``: the rows are copied as they are,
    already checked, and the augmented rows keep their column of ones, so
    the result equals :func:`_checked_node` of the gathered samples.
    """
    X, y, Xa, _ = node
    return _Node(X.take(rows, axis=0), y.take(rows), Xa.take(rows, axis=0), {})


def _column_ranges(X) -> np.ndarray:
    """``X.max(axis=0) - X.min(axis=0)`` with its bits, signed zeros included.

    An axis-0 reduction of a C-ordered matrix steps through the rows one
    short vector at a time; the same maxima and minima reduced along the
    contiguous rows of the transposed copy take a fourteenth of the time at
    2,000 x 2 and a quarter at 4,000 x 16.  The sign of a zero range is the
    expression's; neither caller reads it.
    """
    Xt = np.ascontiguousarray(X.T)
    return Xt.max(axis=1) - Xt.min(axis=1)


def _median(v: np.ndarray) -> float:
    """``float(np.median(v))`` of a non-empty 1-D float array ``v`` of finite values, with its bits.

    One ``np.partition`` with ``np.median``'s own indices (the middle one
    or pair, then the last), so that equal values, ``-0.0`` and ``0.0``
    among them, land where they land for ``np.median``; then its mean of
    the middle slice, the sum by ``np.add.reduce`` divided by the count.
    That is ``np.median`` without its wrapper (``_ureduce``, ``mean``),
    which took most of its time on a node's column.  A NaN would not
    propagate, so the values must be finite.
    """
    half = v.size // 2
    middle = (half,) if v.size % 2 else (half - 1, half)
    part = np.partition(v, (*middle, -1))
    return float(np.add.reduce(part[middle[0]:half + 1])) / len(middle)


def initialize_params(X, y, alpha: float = 0.0, seed: int = 0, *, _node: _Node | None = None):
    """Data-driven starting point for the alternating optimization.

    Splits at the median of the largest-range feature (ranges by
    :func:`_column_ranges`) and refits both sides on that partition as an
    iteration does (:func:`_refit`, with ``min_subset`` 2).  A start is
    perturbed at most once, by normal draws of scale ``1e-3 * (1 + max|theta|)``
    from a fresh ``np.random.default_rng(seed)``, and only in two cases: if
    the refit does not depend on the partition alone (a side has fewer than
    two samples, or stays singular after the jitter retry), both vectors
    start from the global fit plus one draw each, theta1's first; else if
    the two sides coincide within ``DIVERSITY_TOL`` (max-norm), as on
    exactly linear data, theta2 takes one draw.  Any other start draws
    nothing.  Deterministic given seed.

    The pivot and the margin median are :func:`_median`'s, with the bits
    of ``np.median``.  ``_node``, private to this package, is the node of
    ``X`` and ``y`` already checked and augmented (:func:`select_split`
    and :func:`find_optimal_split` pass it); without it they are checked
    and augmented here.  The refit neither reads nor
    fills the node's refit cache: it runs with ``min_subset`` 2, not the
    split's, so a side too small for the split's ``min_subset`` is fitted
    here where an iteration would keep its parameters (and the reverse
    when the split's is 1).
    """
    X, y, Xa, _ = _node or _checked_node(X, y)
    n, d = X.shape
    if n < 2:
        raise TooFewSamples("initialization needs at least 2 samples")

    k = int(np.argmax(_column_ranges(X)))
    pivot = _median(X[:, k])
    first = X[:, k] <= pivot
    # There are no current parameters: a side that would keep its row is discarded.
    (theta1, theta2), alone = _refit(Xa, y, first.nonzero()[0], (~first).nonzero()[0],
                                     np.zeros((2, d + 1)), alpha, 2)
    if not alone:
        theta_global = fit_or_mean(Xa, y, alpha)
        scale = 1e-3 * (1.0 + float(np.max(np.abs(theta_global))))
        rng = np.random.default_rng(seed & 0xFFFFFFFFFFFFFFFF)
        theta1 = theta_global + rng.normal(0.0, scale, size=d + 1)
        theta2 = theta_global + rng.normal(0.0, scale, size=d + 1)
    elif float(np.max(np.abs(theta1 - theta2))) < DIVERSITY_TOL:
        scale = 1e-3 * (1.0 + float(np.max(np.abs(theta1))))
        rng = np.random.default_rng(seed & 0xFFFFFFFFFFFFFFFF)
        theta2 = theta2 + rng.normal(0.0, scale, size=d + 1)

    # The two side fits can be near-collinear, leaving the hinge boundary
    # entirely outside the data (every sample on one side).  A one-sided
    # start stalls small damping factors for ~1/mu iterations, so shift
    # the second bias by the median margin to pull the boundary into the
    # sample cloud.
    margins = Xa.dot(theta1 - theta2)
    if margins.min() >= 0.0 or margins.max() <= 0.0:
        theta2 = theta2.copy()
        theta2[-1] += _median(margins)
    return theta1, theta2


def _check_size(n: int, config: SplitConfig) -> None:
    if n < 2 * config.min_subset:
        raise TooFewSamples(
            f"need at least {2 * config.min_subset} samples, got {n}"
        )


def find_optimal_split(X, y, kind: HingeKind, config: SplitConfig,
                       start: tuple[np.ndarray, np.ndarray] | None = None, *,
                       _node: _Node | None = None) -> SplitOutcome:
    """Optimize one hinge split of the given kind.

    Starts from ``start``, a pair of finite vectors of length d+1 (else
    :class:`DimensionMismatch` or :class:`NonFiniteInput`) that is read and
    never modified, or from :func:`initialize_params` when it is None.
    Then runs at most ``t_max`` damped Newton iterations, the body of its
    loop and the package's only one: refit the partition of the current
    parameters (the node's cached targets when it has them), then step
    toward the targets.  A fixed step has one candidate, always taken, even
    on a zero direction; under ``"auto"`` the line search tries at most
    ``max_backtracks`` candidates from ``mu0``, shrinking by ``beta``, and
    takes the first that strictly lowers the objective; a unit step lands
    exactly on (a copy of) the targets.  ``objective_trace`` holds the
    objective at the start and after each iteration, ``mu_trace`` each
    step, and ``partition_sizes`` the sizes of each partition (by
    :func:`_first_pair`, the one tie rule), the last included.  The node
    objective at a pair is ``objective_trace[0]`` of a call with
    ``t_max=1`` and that pair as ``start``.

    Convergence means the summed parameter change (Euclidean norms) fell
    below ``epsilon`` or, under ``"auto"``, that no candidate decreased the
    objective, so an auto trace strictly decreases.  One damped Newton
    step from a pair, fixed or line-searched, is a call with ``t_max=1``
    and that pair as ``start``: the outcome's parameters are the step's,
    and ``mu_trace`` holds its step, or is empty when the search found no
    decreasing step, which leaves the parameters at ``start``.  A node of
    fewer than ``2 * min_subset`` rows raises :class:`TooFewSamples`.
    Each distinct partition is refitted once per node, and the targets
    kept are never written (the cache rule of :class:`_Node`).  The
    config's fields are read once per call.  ``_node``, private to this
    module, is ``X`` and ``y`` already checked and augmented, with the
    cache that :func:`select_split` shares between both variants; without
    it the cache lasts one call.  The fallback split is not taken here;
    the tree layer decides that.
    """
    node = _node or _checked_node(X, y)
    X, y, Xa, solved = node
    n = y.shape[0]
    _check_size(n, config)
    if start is None:
        start = initialize_params(X, y, config.ridge_alpha, config.seed, _node=node)
    th = _check_pair(start, X.shape[1])
    envelope = _hinge(kind)
    # The config, read once: a fixed step is one candidate, always taken.
    auto = config.auto_step
    mu0, tries = (config.mu0, config.max_backtracks) if auto else (float(config.step), 1)
    beta, epsilon = config.beta, config.epsilon
    alpha, min_subset = config.ridge_alpha, config.min_subset
    cached = solved.get
    greater_equal, count_nonzero, sqrt = np.greater_equal, np.count_nonzero, math.sqrt

    v0, a, b = _evaluate(Xa, y, th, envelope)
    trace = [v0]
    first = greater_equal(*_first_pair(kind, a, b))
    n1 = int(count_nonzero(first))
    sizes = [(n1, n - n1)]
    mu_trace: list[float] = []
    converged = False

    for _ in range(config.t_max):
        key = first.tobytes()
        target = cached(key)
        if target is None:
            second = ~first
            target = cached(second.tobytes())
            if target is not None:
                target = solved[key] = target[::-1]  # the complement's sides, swapped
            else:
                target, alone = _refit(Xa, y, first.nonzero()[0], second.nonzero()[0], th,
                                       alpha, min_subset)
                if alone:
                    solved[key] = target
        delta = target - th
        if auto and not count_nonzero(delta):
            # Every candidate is th up to the sign of a zero, whose objective
            # v0 fails the strict test: none is evaluated.  The count is
            # ``delta.any()`` without the reduction's overhead.
            converged = True
            break
        mu = mu0
        for _ in range(tries):
            # mu == 1 lands exactly on the refit targets (unit Newton step),
            # copied, since targets are never written.
            new = target.copy() if mu == 1.0 else th + mu * delta
            v, a, b = _evaluate(Xa, y, new, envelope)
            if not auto or v < v0:
                break
            mu *= beta
        else:
            # No candidate decreases the objective along this direction; stop.
            converged = True
            break
        # Euclidean norms; math.sqrt of the dot gives np.linalg.norm's bits.
        # The rows are indexed: unpacking iterates the array, four times slower.
        m = new - th
        m1, m2 = m[0], m[1]
        change = sqrt(m1.dot(m1)) + sqrt(m2.dot(m2))
        th, v0 = new, v
        first = greater_equal(*_first_pair(kind, a, b))
        n1 = int(count_nonzero(first))
        trace.append(v)
        mu_trace.append(mu)
        sizes.append((n1, n - n1))
        if change < epsilon:
            converged = True
            break

    theta1, theta2 = th
    return SplitOutcome(
        theta1=theta1,
        theta2=theta2,
        kind=kind,
        converged=converged,
        iterations=len(mu_trace),
        objective_trace=trace,
        mu_trace=mu_trace,
        partition_sizes=sizes,
    )


def select_split(X, y, config: SplitConfig, *, _node: _Node | None = None) -> SplitOutcome:
    """Run both hinge variants and keep the one with lower training RMSE.

    The samples are checked and augmented once, into one node
    (:class:`_Node`) with one refit cache, after which the sample count is
    checked.  ``_node``, private to this package, is that node already
    built, for ``X`` and ``y``: the tree passes each node's, gathered from
    the root's (:func:`_node_rows`), so no node below the root is checked
    or augmented again.  With it the outcome has the bits of a call
    without it.  :func:`initialize_params` runs once on that node, and both
    variants (:func:`find_optimal_split`) start from its pair and share the
    node: a partition, or its complement, that one variant has solved is
    not solved again by the other.  Both functions are looked up in this
    module's namespace at call time, so a wrapper put there sees each
    call.  The max variant runs first and wins ties.  The returned
    outcome's ``variant_iterations`` holds the raw (max, min) iteration
    counts.  The outcome has the bits of the better of two separate
    :func:`find_optimal_split` calls from the same start.
    """
    node = _node or _checked_node(X, y)
    X, y = node.X, node.y
    n = y.shape[0]
    _check_size(n, config)
    start = initialize_params(X, y, config.ridge_alpha, config.seed, _node=node)
    out_max = find_optimal_split(X, y, HingeKind.MAX, config, start, _node=node)
    out_min = find_optimal_split(X, y, HingeKind.MIN, config, start, _node=node)
    rmse_max = float(np.sqrt(2.0 * out_max.objective_trace[-1] / n))
    rmse_min = float(np.sqrt(2.0 * out_min.objective_trace[-1] / n))
    winner = out_min if rmse_min < rmse_max else out_max
    winner.variant_iterations = (out_max.iterations, out_min.iterations)
    return winner


def median_fallback(X, seed: int = 0) -> Split:
    """Axis split at the median of a random non-constant feature.

    Used when node optimization stalls.  The axis test is encoded as a
    max hinge (theta1 = +e_k with bias -m_k, theta2 = its negation) so
    that S1 = {x_k >= m_k} and every downstream consumer sees one uniform
    node representation.  A feature is non-constant when its range
    (:func:`_column_ranges`) is positive; the threshold is its
    :func:`_median`, with the bits of ``np.median``.  A NaN or infinite
    value in ``X`` raises :class:`NonFiniteInput`.
    """
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[0] < 2:
        raise TooFewSamples("fallback split needs at least 2 samples")
    if not np.isfinite(X).all():
        raise NonFiniteInput("fallback split data contains a NaN or infinite value")
    n, d = X.shape
    candidates = np.flatnonzero(_column_ranges(X) > 0)
    if candidates.size == 0:
        raise AllFeaturesConstant("every feature is constant at this node")
    rng = np.random.default_rng(seed & 0xFFFFFFFFFFFFFFFF)
    k = int(candidates[rng.integers(candidates.size)])
    m = _median(X[:, k])
    theta1 = np.zeros(d + 1)
    theta1[k] = 1.0
    theta1[-1] = -m
    return Split(kind=HingeKind.MAX, theta1=theta1, theta2=-theta1, fallback_feature=k,
                 fallback_threshold=m)
