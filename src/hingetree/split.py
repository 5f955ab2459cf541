"""Oblique node splits: two linear models joined by a max or min hinge.

A split is learned by alternating between partitioning the node's samples
with the current hinge and refitting each side by (ridge) least squares.
The damped update ``theta <- theta + mu * (theta_fit - theta)`` is exactly
a damped Newton step on the node objective, because the Gauss-Newton
Hessian is exact for a piecewise-linear model.  ``mu`` may be a fixed
damping factor in (0, 1] or ``"auto"``, a backtracking search that starts
at ``mu0`` and shrinks geometrically until the objective strictly drops.
Every function that takes samples and targets checks them with
:func:`~hingetree.linear.check_training` first.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .errors import AllFeaturesConstant, DegenerateSystem, TooFewSamples
from .linear import augment, check_training, fit_or_mean, ridge_solve, ridge_solve_pair

# Two parameter vectors closer than this (max-norm) count as identical
# during initialization and trigger a symmetry-breaking perturbation.
DIVERSITY_TOL = 1e-9


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
        if self.t_max < 1:
            raise ValueError("t_max must be a positive integer")
        if isinstance(self.step, str):
            if self.step != "auto":
                raise ValueError("step must be a damping factor in (0, 1] or 'auto'")
        elif not 0.0 < float(self.step) <= 1.0:
            raise ValueError("fixed step must lie in (0, 1]")
        if self.mu0 <= 0.0:
            raise ValueError("mu0 must be positive")
        if not 0.0 < self.beta < 1.0:
            raise ValueError("beta must lie in (0, 1)")
        if self.max_backtracks < 1:
            raise ValueError("max_backtracks must be a positive integer")
        if self.epsilon <= 0.0:
            raise ValueError("epsilon must be positive")
        if self.ridge_alpha < 0.0:
            raise ValueError("ridge_alpha must be non-negative")
        if self.min_subset < 1:
            raise ValueError("min_subset must be a positive integer")

    @property
    def auto_step(self) -> bool:
        return self.step == "auto"


@dataclass
class SplitOutcome:
    """Result of optimizing (or falling back on) one node split.

    ``objective_trace`` holds the objective value at initialization and
    after every accepted iteration (length ``iterations + 1`` for
    optimized splits; empty for fallback splits).  ``mu_trace`` and
    ``partition_sizes`` are per-iteration diagnostics;
    ``variant_iterations`` is filled by :func:`select_split` with the raw
    (max-variant, min-variant) iteration counts.
    """

    theta1: np.ndarray
    theta2: np.ndarray
    kind: HingeKind
    converged: bool
    iterations: int
    objective_trace: list[float]
    used_fallback: bool = False
    fallback_feature: int | None = None
    fallback_threshold: float | None = None
    mu_trace: list[float] = field(default_factory=list)
    partition_sizes: list[tuple[int, int]] = field(default_factory=list)
    variant_iterations: tuple[int, int] | None = None


def _envelope(a, b, kind):
    return np.maximum(a, b) if kind is HingeKind.MAX else np.minimum(a, b)


def _first_pair(kind, a, b):
    """The tie rule: ``(p, q)`` such that a row takes the first branch iff ``p >= q``.

    ``a`` and ``b`` belong to the first and second side (their values, or
    their coefficient vectors).  The max variant sends ``a >= b`` first and
    the min variant ``a <= b``, which is ``b >= a``, so a min pair comes
    back swapped.  Ties go to the first branch for both variants, and a
    NaN value sends a row to the second.
    """
    return (a, b) if kind is HingeKind.MAX else (b, a)


def _sides(a, b, kind, idx):
    p, q = _first_pair(kind, a, b)
    first = p >= q
    return idx[first], idx[~first]


def _evaluate(Xa, y, theta1, theta2, kind):
    """Objective at (theta1, theta2) on the augmented design, with the side values a and b.

    ``a = Xa @ theta1`` and ``b = Xa @ theta2`` are returned so that the
    caller can partition by them without recomputing either matvec.
    """
    a = Xa @ theta1
    b = Xa @ theta2
    r = y - _envelope(a, b, kind)
    return 0.5 * float(r @ r), a, b


def objective(X, y, theta1, theta2, kind: HingeKind) -> float:
    """Node objective: half the summed squared error of the hinge prediction."""
    X, y = check_training(X, y)
    return _evaluate(augment(X), y, theta1, theta2, kind)[0]


def partition(X, theta1, theta2, kind: HingeKind):
    """Split row indices into (S1, S2) by the hinge comparison.

    Max variant: j is in S1 iff x~.theta1 >= x~.theta2; min variant uses
    <=.  The two sets are disjoint and exhaustive.
    """
    Xa = augment(X)
    return _sides(Xa @ theta1, Xa @ theta2, kind, np.arange(Xa.shape[0]))


def _fit_subset(Xa, y, idx, alpha, min_subset, current):
    # Undersized or degenerate sides keep their parameters for this step.
    if idx.size < min_subset:
        return current
    try:
        return ridge_solve(Xa[idx], y[idx], alpha)
    except DegenerateSystem:
        return current


def _refit(Xa, y, s1, s2, theta1, theta2, alpha, min_subset):
    """Both sides' ridge targets for the partition (s1, s2) of the augmented design.

    When both sides are large enough the two systems share one stacked
    factorization; if that fails, each side is fitted on its own, with the
    jitter retry and the keep-current rule of a single fit.  A side that
    keeps its parameters returns the very array passed in, so a target
    that is not ``theta1`` or ``theta2`` itself depends on the partition
    alone.
    """
    if s1.size >= min_subset and s2.size >= min_subset:
        pair = ridge_solve_pair(Xa[s1], y[s1], Xa[s2], y[s2], alpha)
        if pair is not None:
            return pair
    return (_fit_subset(Xa, y, s1, alpha, min_subset, theta1),
            _fit_subset(Xa, y, s2, alpha, min_subset, theta2))


def _step_toward(theta, target, mu):
    # mu == 1 lands exactly on the refit solution (unit Newton step).
    if mu == 1.0:
        return target.copy()
    return theta + mu * (target - theta)


def _line_search(Xa, y, kind, theta1, theta2, f1, f2, v0, config):
    """Backtrack from ``mu0`` until a step toward (f1, f2) lowers the objective below v0.

    Returns ``(mu, theta1', theta2', v, a, b)`` with the accepted pair's
    side values ``a`` and ``b`` (see :func:`_evaluate`); ``mu`` is 0, the
    parameters and ``v0`` come back unchanged and ``a``, ``b`` are None
    when no candidate lowers the objective.
    """
    mu = config.mu0
    for _ in range(config.max_backtracks):
        c1 = _step_toward(theta1, f1, mu)
        c2 = _step_toward(theta2, f2, mu)
        v, a, b = _evaluate(Xa, y, c1, c2, kind)
        if v < v0:
            return mu, c1, c2, v, a, b
        mu *= config.beta
    return 0.0, theta1, theta2, v0, None, None


def damped_update(X, y, s1, s2, theta1, theta2, mu: float,
                  alpha: float = 0.0, min_subset: int = 2):
    """One damped Newton step with the partition (s1, s2) held fixed."""
    X, y = check_training(X, y)
    f1, f2 = _refit(augment(X), y, np.asarray(s1, dtype=int), np.asarray(s2, dtype=int),
                    theta1, theta2, alpha, min_subset)
    return _step_toward(theta1, f1, mu), _step_toward(theta2, f2, mu)


def newton_step(X, y, theta1, theta2, kind: HingeKind, mu: float,
                alpha: float = 0.0, min_subset: int = 2):
    """Partition by the current parameters, then take one damped Newton step."""
    if not 0.0 < mu <= 1.0:
        raise ValueError("mu must lie in (0, 1]")
    s1, s2 = partition(X, theta1, theta2, kind)
    return damped_update(X, y, s1, s2, theta1, theta2, mu, alpha, min_subset)


def backtracking_step(X, y, theta1, theta2, kind: HingeKind,
                      config: SplitConfig):
    """Line-searched Newton step.

    Tries mu in {mu0, mu0*beta, mu0*beta**2, ...} (at most
    ``max_backtracks`` candidates) and returns the first one that strictly
    decreases the hinge objective, together with the updated parameters.
    Returns ``(0.0, theta1, theta2)`` if no candidate decreases it, which
    callers treat as a local stop.
    """
    X, y = check_training(X, y)
    Xa = augment(X)
    v0, a, b = _evaluate(Xa, y, theta1, theta2, kind)
    s1, s2 = _sides(a, b, kind, np.arange(Xa.shape[0]))
    f1, f2 = _refit(Xa, y, s1, s2, theta1, theta2, config.ridge_alpha, config.min_subset)
    mu, theta1, theta2, *_ = _line_search(Xa, y, kind, theta1, theta2, f1, f2, v0, config)
    return mu, theta1, theta2


def initialize_params(X, y, alpha: float = 0.0, seed: int = 0):
    """Data-driven starting point for the alternating optimization.

    Splits at the median of the largest-range feature and ridge-fits each
    side.  If either side is smaller than two samples (or a side fit is
    degenerate), both vectors start from the global fit plus small
    independent perturbations.  A final diversity check keeps theta1 and
    theta2 from being numerically identical.  Deterministic given seed.
    """
    X, y = check_training(X, y)
    n, d = X.shape
    if n < 2:
        raise TooFewSamples("initialization needs at least 2 samples")
    Xa = augment(X)
    rng = np.random.default_rng(seed & 0xFFFFFFFFFFFFFFFF)

    ranges = X.max(axis=0) - X.min(axis=0)
    k = int(np.argmax(ranges))
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
        theta1 = theta_global + rng.normal(0.0, scale, size=d + 1)
        theta2 = theta_global + rng.normal(0.0, scale, size=d + 1)

    if float(np.max(np.abs(theta1 - theta2))) < DIVERSITY_TOL:
        scale = 1e-3 * (1.0 + float(np.max(np.abs(theta1))))
        theta2 = theta2 + rng.normal(0.0, scale, size=d + 1)
        if float(np.max(np.abs(theta1 - theta2))) < DIVERSITY_TOL:
            theta2 = theta2.copy()
            theta2[0] += 1e-6

    # The two side fits can be near-collinear, leaving the hinge boundary
    # entirely outside the data (every sample on one side).  A one-sided
    # start stalls small damping factors for ~1/mu iterations, so shift
    # the second bias by the median margin to pull the boundary into the
    # sample cloud.
    margins = Xa @ (theta1 - theta2)
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
    and line search, on an augmented design formed once per call.  A
    refit factorizes both sides' normal equations as one stacked Cholesky
    (:func:`hingetree.linear.ridge_solve_pair`), and the side values
    ``Xa @ theta`` of the accepted parameters serve both the objective and
    the next partition, so each pair is evaluated once.  When an
    iteration's partition is the same row set as the previous one's, the
    previous ridge targets are reused without a refit, provided they
    depended on the partition alone: both sides had ``min_subset`` rows
    and neither kept its current parameters.  The reused targets are the
    bits a refit would return.
    Convergence means the summed parameter change fell below
    ``epsilon``, or (auto step only) no backtracking candidate decreased
    the objective.  Under the auto step the recorded objective trace is
    strictly decreasing by construction.  The fallback split is not taken
    here; the tree layer decides that.
    """
    X, y = check_training(X, y)
    n = y.shape[0]
    _check_size(n, config)
    Xa = augment(X)
    idx = np.arange(n)
    if start is None:
        start = initialize_params(X, y, config.ridge_alpha, config.seed)
    theta1, theta2 = start

    v, a, b = _evaluate(Xa, y, theta1, theta2, kind)
    trace = [v]
    s1, s2 = _sides(a, b, kind, idx)
    sizes = [(int(s1.size), int(s2.size))]
    mu_trace: list[float] = []
    converged = False
    # (s1, f1, f2) of the last refit if its targets depend on the partition
    # alone; S2 is the complement of S1, so S1 identifies the partition.
    held = None

    for _ in range(config.t_max):
        if held is not None and held[0].size == s1.size and np.array_equal(held[0], s1):
            _, f1, f2 = held
        else:
            f1, f2 = _refit(Xa, y, s1, s2, theta1, theta2, config.ridge_alpha,
                            config.min_subset)
            held = (s1, f1, f2) if f1 is not theta1 and f2 is not theta2 else None
        if config.auto_step:
            mu, new1, new2, v, a, b = _line_search(Xa, y, kind, theta1, theta2, f1, f2,
                                                   trace[-1], config)
            if mu == 0.0:
                # No decreasing step exists along this direction; stop.
                converged = True
                break
        else:
            mu = float(config.step)
            new1 = _step_toward(theta1, f1, mu)
            new2 = _step_toward(theta2, f2, mu)
            v, a, b = _evaluate(Xa, y, new1, new2, kind)

        # Euclidean norms; math.sqrt of the dot gives np.linalg.norm's bits.
        d1 = new1 - theta1
        d2 = new2 - theta2
        change = math.sqrt(float(d1 @ d1)) + math.sqrt(float(d2 @ d2))
        theta1, theta2 = new1, new2
        s1, s2 = _sides(a, b, kind, idx)
        trace.append(v)
        mu_trace.append(mu)
        sizes.append((int(s1.size), int(s2.size)))
        if change < config.epsilon:
            converged = True
            break

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


def median_fallback(X, seed: int = 0) -> SplitOutcome:
    """Axis split at the median of a random non-constant feature.

    Used when node optimization stalls.  The axis test is encoded as a
    max hinge (theta1 = +e_k with bias -m_k, theta2 = its negation) so
    that S1 = {x_k >= m_k} and every downstream consumer sees one uniform
    node representation.
    """
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[0] < 2:
        raise TooFewSamples("fallback split needs at least 2 samples")
    n, d = X.shape
    ranges = X.max(axis=0) - X.min(axis=0)
    candidates = np.flatnonzero(ranges > 0)
    if candidates.size == 0:
        raise AllFeaturesConstant("every feature is constant at this node")
    rng = np.random.default_rng(seed & 0xFFFFFFFFFFFFFFFF)
    k = int(candidates[rng.integers(candidates.size)])
    m = float(np.median(X[:, k]))
    theta1 = np.zeros(d + 1)
    theta1[k] = 1.0
    theta1[-1] = -m
    theta2 = -theta1
    return SplitOutcome(
        theta1=theta1,
        theta2=theta2,
        kind=HingeKind.MAX,
        converged=True,
        iterations=0,
        objective_trace=[],
        used_fallback=True,
        fallback_feature=k,
        fallback_threshold=m,
    )
