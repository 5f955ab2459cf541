"""Oblique node splits: two linear models joined by a max or min hinge.

A split is learned by alternating between partitioning the node's samples
with the current hinge and refitting each side by (ridge) least squares.
The damped update ``theta <- theta + mu * (theta_fit - theta)`` is exactly
a damped Newton step on the node objective, because the Gauss-Newton
Hessian is exact for a piecewise-linear model.  ``mu`` may be a fixed
damping factor in (0, 1] or ``"auto"``, a backtracking search that starts
at ``mu0`` and shrinks geometrically until the objective strictly drops.
The optimizer and the public steps hold both sides' parameters as one
``(2, d+1)`` array, so a step, a line-search candidate and a parameter
change are one set of elementwise operations; every value keeps the bits
of the per-side arithmetic, because the side values stay two matvecs and
the objective and change norms stay dot products.  Those products go
through ``ndarray.dot``, which makes the BLAS call of the ``@`` operator
(``dgemv``, ``ddot``) without its ufunc dispatch, and so has its bits
(``tests/test_linear.py::TestDotMatchesMatmul`` pins this); the hinge
kind is resolved to its ufuncs once per call (:func:`_hinge`).
Every function that takes samples and targets checks them with
:func:`~hingetree.linear.check_training` first.
"""
from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from enum import Enum

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
    neither.  Exact ints and floats skip the ABC checks: the tree rebuilds a config per node.
    """
    for name in (*integers, *reals):
        value = getattr(config, name)
        kind, abc = (int, numbers.Integral) if name in integers else (float, numbers.Real)
        if (type(value) is not kind and (isinstance(value, bool) or not isinstance(value, abc))
                or not -math.inf < value < math.inf):
            raise ValueError(f"{name} must be {'an integer' if kind is int else 'a finite number'}"
                             f", got {value!r}")


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
    """How a node routes: a row goes first iff ``p >= q`` for ``_first_pair(kind, theta1, theta2)``.

    ``theta1`` and ``theta2`` are kept as read-only float copies.  A median
    fallback split (:func:`median_fallback`) also records its feature and threshold.
    A ``kind`` that is not a :class:`HingeKind` raises ``TypeError``, as in :func:`_hinge`.
    """

    kind: HingeKind
    theta1: np.ndarray
    theta2: np.ndarray
    fallback_feature: int | None = None
    fallback_threshold: float | None = None

    def __post_init__(self):
        _hinge(self.kind)  # a kind that is not a HingeKind raises TypeError
        object.__setattr__(self, "theta1", _read_only(self.theta1))
        object.__setattr__(self, "theta2", _read_only(self.theta2))

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
    NaN value sends a row to the second.
    """
    return (a, b) if kind is HingeKind.MAX else (b, a)


def _hinge(kind):
    """``(envelope, first)``: the ufuncs that join a ``kind`` hinge's side values and pick its rows.

    ``envelope(a, b)`` is the hinge prediction, ``np.maximum`` or
    ``np.minimum``; ``first(a, b)`` is the mask of the rows on the first
    side by the rule of :func:`_first_pair`: ``np.greater_equal`` for max
    and ``np.less_equal`` for min, whose ``a <= b`` is ``b >= a`` for every
    value, NaN included.  A caller resolves both once per call, not per
    iteration.  Any ``kind`` but a :class:`HingeKind` raises ``TypeError``.
    """
    if kind is HingeKind.MAX:
        return np.maximum, np.greater_equal
    if kind is HingeKind.MIN:
        return np.minimum, np.less_equal
    raise TypeError(f"kind must be a HingeKind, got {kind!r}")


def _evaluate(Xa, y, th, envelope):
    """Objective at the stacked parameters ``th`` = (theta1, theta2), with the side values a and b.

    ``a = Xa.dot(th[0])`` and ``b = Xa.dot(th[1])`` are two matvecs, not
    one product with ``th.T``, which would round differently; they are
    returned so that the caller can partition by them without recomputing
    either.  ``envelope`` is the hinge's ufunc (:func:`_hinge`).  Every
    product goes through ``ndarray.dot``, the BLAS call of ``@`` without
    its ufunc dispatch, so it has the bits of ``@``
    (``tests/test_linear.py::TestDotMatchesMatmul`` pins this).
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


def objective(X, y, theta1, theta2, kind: HingeKind) -> float:
    """Node objective: half the summed squared error of the hinge prediction."""
    X, y = check_training(X, y)
    th = _check_pair((theta1, theta2), X.shape[1])
    return _evaluate(augment(X), y, th, _hinge(kind)[0])[0]


def partition(X, theta1, theta2, kind: HingeKind):
    """Split row indices into (S1, S2) by the hinge comparison.

    Max variant: j is in S1 iff x~.theta1 >= x~.theta2; min variant uses
    <=.  The two sets are disjoint and exhaustive.  A NaN or infinite value
    in ``X`` raises :class:`NonFiniteInput`, as in :func:`objective`.
    """
    Xa = augment(X)
    if not np.isfinite(Xa).all():
        raise NonFiniteInput("partition data contains a NaN or infinite value")
    theta1, theta2 = _check_pair((theta1, theta2), Xa.shape[1] - 1)
    first = _hinge(kind)[1](Xa.dot(theta1), Xa.dot(theta2))
    return first.nonzero()[0], (~first).nonzero()[0]


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


def _targets(Xa, y, first, th, alpha, min_subset):
    """:func:`_refit` on the partition ``first``, a mask of the rows on the first side."""
    return _refit(Xa, y, first.nonzero()[0], (~first).nonzero()[0], th, alpha, min_subset)


def _step(th, target, delta, mu):
    # ``delta`` is ``target - th``, formed once per direction; mu == 1
    # lands exactly on the refit solution (unit Newton step).
    if mu == 1.0:
        return target.copy()
    return th + mu * delta


def _line_search(Xa, y, envelope, th, target, v0, config):
    """Backtrack from ``mu0`` until a step from ``th`` toward ``target`` lowers the objective below v0.

    Both are stacked ``(2, d+1)`` parameters.  Returns ``(mu, th', v, a,
    b)`` with the accepted pair's side values ``a`` and ``b`` (see
    :func:`_evaluate`); ``mu`` is 0, ``th`` and ``v0`` come back unchanged
    and ``a``, ``b`` are None when no candidate lowers the objective.
    That is the result, with no candidate evaluated, when the direction
    ``target - th`` is all zeros: every candidate is then ``th`` up to the
    sign of a zero, whose objective is ``v0`` and fails the strict test.
    """
    delta = target - th
    if not delta.any():
        return 0.0, th, v0, None, None
    mu = config.mu0
    for _ in range(config.max_backtracks):
        candidate = _step(th, target, delta, mu)
        v, a, b = _evaluate(Xa, y, candidate, envelope)
        if v < v0:
            return mu, candidate, v, a, b
        mu *= config.beta
    return 0.0, th, v0, None, None


def _check_indices(idx, n: int) -> np.ndarray:
    """The row indices ``idx`` of one side as an integer array, or ``ValueError``.

    A boolean mask or non-integer values are rejected, not cast; an empty
    side is allowed.
    """
    idx = np.asarray(idx)
    if idx.size == 0:
        return np.empty(0, dtype=np.intp)
    if idx.ndim != 1 or idx.dtype.kind not in "iu":
        raise ValueError("a side must be a 1-D array of integer row indices")
    if idx.min() < 0 or idx.max() >= n:
        raise ValueError(f"row indices must lie in [0, {n})")
    return idx


def damped_update(X, y, s1, s2, theta1, theta2, mu: float,
                  alpha: float = 0.0, min_subset: int = 2):
    """One damped Newton step with the partition (s1, s2) held fixed.

    ``s1`` and ``s2`` are the integer row indices of the two sides.
    Raises ``ValueError`` unless ``mu`` lies in (0, 1] and each side is a
    1-D integer index array within the rows (a boolean mask is rejected).
    """
    if not 0.0 < mu <= 1.0:
        raise ValueError("mu must lie in (0, 1]")
    X, y = check_training(X, y)
    n, d = X.shape
    th = _check_pair((theta1, theta2), d)
    target, _ = _refit(augment(X), y, _check_indices(s1, n), _check_indices(s2, n),
                       th, alpha, min_subset)
    new1, new2 = _step(th, target, target - th, mu)
    return new1, new2


def newton_step(X, y, theta1, theta2, kind: HingeKind, mu: float,
                alpha: float = 0.0, min_subset: int = 2):
    """Partition by the current parameters, then take one damped Newton step.

    Raises ``ValueError`` unless ``mu`` lies in (0, 1] (:func:`damped_update`).
    """
    s1, s2 = partition(X, theta1, theta2, kind)
    return damped_update(X, y, s1, s2, theta1, theta2, mu, alpha, min_subset)


def backtracking_step(X, y, theta1, theta2, kind: HingeKind,
                      config: SplitConfig):
    """Line-searched Newton step.

    Tries mu in {mu0, mu0*beta, mu0*beta**2, ...} (at most
    ``max_backtracks`` candidates) and returns the first one that strictly
    decreases the hinge objective, together with the updated parameters.
    Returns ``(0.0, theta1, theta2)`` if no candidate decreases it, which
    callers treat as a local stop.  At a fixed point, where the refit
    targets equal the current parameters, it returns that without
    evaluating any candidate: each would be the current pair.
    """
    X, y = check_training(X, y)
    th = _check_pair((theta1, theta2), X.shape[1])
    Xa = augment(X)
    envelope, first = _hinge(kind)
    v0, a, b = _evaluate(Xa, y, th, envelope)
    target, _ = _targets(Xa, y, first(a, b), th, config.ridge_alpha, config.min_subset)
    mu, (new1, new2), *_ = _line_search(Xa, y, envelope, th, target, v0, config)
    return mu, new1, new2


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


def initialize_params(X, y, alpha: float = 0.0, seed: int = 0):
    """Data-driven starting point for the alternating optimization.

    Splits at the median of the largest-range feature (ranges by
    :func:`_column_ranges`) and ridge-fits each side.  If either side is
    smaller than two samples (or a side fit is degenerate), both vectors
    start from the global fit plus small independent perturbations.  A
    final diversity check keeps theta1 and theta2 from being numerically
    identical.  Deterministic given seed.
    """
    X, y = check_training(X, y)
    n, d = X.shape
    if n < 2:
        raise TooFewSamples("initialization needs at least 2 samples")
    Xa = augment(X)
    rng = None  # made on the first perturbation that draws from it

    k = int(np.argmax(_column_ranges(X)))
    pivot = float(np.median(X[:, k]))
    low = X[:, k] <= pivot

    theta1 = theta2 = None
    if int(low.sum()) >= 2 and int((~low).sum()) >= 2:
        try:
            theta1 = ridge_solve(Xa[low], y[low], alpha)
            theta2 = ridge_solve(Xa[~low], y[~low], alpha)
        except DegenerateSystem:
            theta1 = theta2 = None
    if theta1 is None:
        theta_global = fit_or_mean(Xa, y, alpha)
        scale = 1e-3 * (1.0 + float(np.max(np.abs(theta_global))))
        rng = np.random.default_rng(seed & 0xFFFFFFFFFFFFFFFF)
        theta1 = theta_global + rng.normal(0.0, scale, size=d + 1)
        theta2 = theta_global + rng.normal(0.0, scale, size=d + 1)

    if float(np.max(np.abs(theta1 - theta2))) < DIVERSITY_TOL:
        scale = 1e-3 * (1.0 + float(np.max(np.abs(theta1))))
        if rng is None:
            rng = np.random.default_rng(seed & 0xFFFFFFFFFFFFFFFF)
        theta2 = theta2 + rng.normal(0.0, scale, size=d + 1)
        if float(np.max(np.abs(theta1 - theta2))) < DIVERSITY_TOL:
            theta2 = theta2.copy()
            theta2[0] += 1e-6

    # The two side fits can be near-collinear, leaving the hinge boundary
    # entirely outside the data (every sample on one side).  A one-sided
    # start stalls small damping factors for ~1/mu iterations, so shift
    # the second bias by the median margin to pull the boundary into the
    # sample cloud.
    margins = Xa.dot(theta1 - theta2)
    if margins.min() >= 0.0 or margins.max() <= 0.0:
        theta2 = theta2.copy()
        theta2[-1] += float(np.median(margins))
    return theta1, theta2


def _check_size(n: int, config: SplitConfig) -> None:
    if n < 2 * config.min_subset:
        raise TooFewSamples(
            f"need at least {2 * config.min_subset} samples, got {n}"
        )


def find_optimal_split(X, y, kind: HingeKind, config: SplitConfig,
                       start: tuple[np.ndarray, np.ndarray] | None = None) -> SplitOutcome:
    """Optimize one hinge split of the given kind.

    Starts from ``start``, a ``(theta1, theta2)`` pair, or from
    :func:`initialize_params` when it is None; the start is read, never
    modified, so both variants may share one.  Alternates refitting and
    repartitioning for at most ``t_max`` iterations.  Each iteration
    refits and steps as :func:`newton_step` (fixed step) or
    :func:`backtracking_step` (auto) do, through the same private refit
    and line search, on an augmented design formed once per call.  Both
    sides' parameters are held as one ``(2, d+1)`` array, so a step or a
    line-search candidate is one set of elementwise operations, while the
    side values stay the two matvecs ``Xa.dot(theta)`` and the objective
    and change norms stay dot products: every value has the bits of the
    per-side arithmetic.  Every product goes through ``ndarray.dot``, the
    BLAS call of ``@`` without its ufunc dispatch and with its bits
    (``tests/test_linear.py::TestDotMatchesMatmul``), and the kind's
    envelope and first-side ufuncs (:func:`_hinge`) are resolved once per
    call.  ``start`` must hold two finite vectors of length d+1
    (:class:`DimensionMismatch`, :class:`NonFiniteInput`).  A refit
    gathers each side's rows with ``take`` and factorizes both sides'
    normal equations as one stacked Cholesky
    (:func:`hingetree.linear.ridge_solve_pair`), whose ``(2, d+1)``
    solution serves as the targets as it is, and the side values of
    the accepted parameters serve both the objective and the next
    partition, so each pair is evaluated once.  The partition is the
    boolean mask of the first side; the row indices are formed only when a
    refit runs.  Each distinct partition of a call is refitted once: the
    targets of every refit that depended on the partition alone (both sides
    had ``min_subset`` rows and neither kept its current parameters) are
    kept by the bytes of their mask, and an iteration whose mask has the
    bytes of any earlier such refit in the call, not only the last one,
    reuses its targets.  They are the bits a refit would return.
    Convergence means the summed parameter change fell below
    ``epsilon``, or (auto step only) no backtracking candidate decreased
    the objective; when the targets equal the current parameters, that
    search evaluates no candidate (:func:`_line_search`).  Under the auto
    step the recorded objective trace is strictly decreasing by
    construction.  The fallback split is not taken here; the tree layer
    decides that.
    """
    X, y = check_training(X, y)
    n = y.shape[0]
    _check_size(n, config)
    Xa = augment(X)
    if start is None:
        start = initialize_params(X, y, config.ridge_alpha, config.seed)
    th = _check_pair(start, X.shape[1])
    alpha, min_subset, auto = config.ridge_alpha, config.min_subset, config.auto_step
    fixed = None if auto else float(config.step)
    envelope, first_side = _hinge(kind)

    v, a, b = _evaluate(Xa, y, th, envelope)
    trace = [v]
    first = first_side(a, b)
    n1 = int(np.count_nonzero(first))
    sizes = [(n1, n - n1)]
    mu_trace: list[float] = []
    converged = False
    # The targets of this call's refits that depend on the partition alone,
    # by the bytes of their partition mask.
    solved: dict[bytes, np.ndarray] = {}

    for _ in range(config.t_max):
        key = first.tobytes()
        target = solved.get(key)
        if target is None:
            target, alone = _targets(Xa, y, first, th, alpha, min_subset)
            if alone:
                solved[key] = target
        if auto:
            mu, new, v, a, b = _line_search(Xa, y, envelope, th, target, trace[-1], config)
            if mu == 0.0:
                # No decreasing step exists along this direction; stop.
                converged = True
                break
        else:
            mu = fixed
            new = _step(th, target, target - th, mu)
            v, a, b = _evaluate(Xa, y, new, envelope)

        # Euclidean norms; math.sqrt of the dot gives np.linalg.norm's bits.
        m1, m2 = new - th
        change = math.sqrt(float(m1.dot(m1))) + math.sqrt(float(m2.dot(m2)))
        th = new
        first = first_side(a, b)
        n1 = int(np.count_nonzero(first))
        trace.append(v)
        mu_trace.append(mu)
        sizes.append((n1, n - n1))
        if change < config.epsilon:
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


def select_split(X, y, config: SplitConfig) -> SplitOutcome:
    """Run both hinge variants and keep the one with lower training RMSE.

    :func:`initialize_params` runs once, after the sample-count check, and
    both variants start from its pair.  The max variant runs first and
    wins ties.  The returned outcome's ``variant_iterations`` holds the
    raw (max, min) iteration counts.
    """
    X, y = check_training(X, y)
    n = y.shape[0]
    _check_size(n, config)
    start = initialize_params(X, y, config.ridge_alpha, config.seed)
    out_max = find_optimal_split(X, y, HingeKind.MAX, config, start)
    out_min = find_optimal_split(X, y, HingeKind.MIN, config, start)
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
    (:func:`_column_ranges`) is positive.  A NaN or infinite value in ``X``
    raises :class:`NonFiniteInput`.
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
    m = float(np.median(X[:, k]))
    theta1 = np.zeros(d + 1)
    theta1[k] = 1.0
    theta1[-1] = -m
    return Split(kind=HingeKind.MAX, theta1=theta1, theta2=-theta1, fallback_feature=k,
                 fallback_threshold=m)
