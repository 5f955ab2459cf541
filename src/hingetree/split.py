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
the objective and change norms stay dot products.
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


def _first_side(a, b, kind):
    # Boolean mask of the rows on the first side of the hinge.
    p, q = _first_pair(kind, a, b)
    return p >= q


def _evaluate(Xa, y, th, kind):
    """Objective at the stacked parameters ``th`` = (theta1, theta2), with the side values a and b.

    ``a = Xa @ th[0]`` and ``b = Xa @ th[1]`` are two matvecs, not one
    product with ``th.T``, which would round differently; they are
    returned so that the caller can partition by them without recomputing
    either.
    """
    a = Xa @ th[0]
    b = Xa @ th[1]
    r = y - _envelope(a, b, kind)
    return 0.5 * float(r @ r), a, b


def objective(X, y, theta1, theta2, kind: HingeKind) -> float:
    """Node objective: half the summed squared error of the hinge prediction."""
    X, y = check_training(X, y)
    return _evaluate(augment(X), y, np.array((theta1, theta2), dtype=float), kind)[0]


def partition(X, theta1, theta2, kind: HingeKind):
    """Split row indices into (S1, S2) by the hinge comparison.

    Max variant: j is in S1 iff x~.theta1 >= x~.theta2; min variant uses
    <=.  The two sets are disjoint and exhaustive.
    """
    Xa = augment(X)
    first = _first_side(Xa @ theta1, Xa @ theta2, kind)
    return np.flatnonzero(first), np.flatnonzero(~first)


def _fit_subset(Xa, y, idx, alpha, min_subset, current):
    # Undersized or degenerate sides keep their parameters for this step.
    if idx.size < min_subset:
        return current
    try:
        return ridge_solve(Xa.take(idx, axis=0), y.take(idx), alpha)
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
        pair = ridge_solve_pair(Xa.take(s1, axis=0), y.take(s1),
                                Xa.take(s2, axis=0), y.take(s2), alpha)
        if pair is not None:
            return pair
    return (_fit_subset(Xa, y, s1, alpha, min_subset, theta1),
            _fit_subset(Xa, y, s2, alpha, min_subset, theta2))


def _targets(Xa, y, first, th, alpha, min_subset):
    """:func:`_refit` on the partition ``first`` (a row mask), stacked like ``th``.

    Returns the ``(2, d+1)`` targets and whether they depend on the
    partition alone, that is, neither side kept its row of ``th``.
    """
    theta1, theta2 = th  # the very views _refit sees, for the identity test
    f1, f2 = _refit(Xa, y, np.flatnonzero(first), np.flatnonzero(~first), theta1, theta2,
                    alpha, min_subset)
    return np.array((f1, f2)), f1 is not theta1 and f2 is not theta2


def _step(th, target, delta, mu):
    # ``delta`` is ``target - th``, formed once per direction; mu == 1
    # lands exactly on the refit solution (unit Newton step).
    if mu == 1.0:
        return target.copy()
    return th + mu * delta


def _line_search(Xa, y, kind, th, target, v0, config):
    """Backtrack from ``mu0`` until a step from ``th`` toward ``target`` lowers the objective below v0.

    Both are stacked ``(2, d+1)`` parameters.  Returns ``(mu, th', v, a,
    b)`` with the accepted pair's side values ``a`` and ``b`` (see
    :func:`_evaluate`); ``mu`` is 0, ``th`` and ``v0`` come back unchanged
    and ``a``, ``b`` are None when no candidate lowers the objective.
    """
    delta = target - th
    mu = config.mu0
    for _ in range(config.max_backtracks):
        candidate = _step(th, target, delta, mu)
        v, a, b = _evaluate(Xa, y, candidate, kind)
        if v < v0:
            return mu, candidate, v, a, b
        mu *= config.beta
    return 0.0, th, v0, None, None


def damped_update(X, y, s1, s2, theta1, theta2, mu: float,
                  alpha: float = 0.0, min_subset: int = 2):
    """One damped Newton step with the partition (s1, s2) held fixed."""
    X, y = check_training(X, y)
    f1, f2 = _refit(augment(X), y, np.asarray(s1, dtype=int), np.asarray(s2, dtype=int),
                    theta1, theta2, alpha, min_subset)
    th = np.array((theta1, theta2), dtype=float)
    target = np.array((f1, f2))
    new1, new2 = _step(th, target, target - th, mu)
    return new1, new2


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
    th = np.array((theta1, theta2), dtype=float)
    v0, a, b = _evaluate(Xa, y, th, kind)
    target, _ = _targets(Xa, y, _first_side(a, b, kind), th, config.ridge_alpha,
                         config.min_subset)
    mu, (new1, new2), *_ = _line_search(Xa, y, kind, th, target, v0, config)
    return mu, new1, new2


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
    rng = None  # made on the first perturbation that draws from it

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
    and line search, on an augmented design formed once per call.  Both
    sides' parameters are held as one ``(2, d+1)`` array, so a step or a
    line-search candidate is one set of elementwise operations, while the
    side values stay the two matvecs ``Xa @ theta`` and the objective and
    change norms stay dot products: every value has the bits of the
    per-side arithmetic.  A refit gathers each side's rows with ``take``
    and factorizes both sides' normal equations as one stacked Cholesky
    (:func:`hingetree.linear.ridge_solve_pair`), and the side values of
    the accepted parameters serve both the objective and the next
    partition, so each pair is evaluated once.  The partition is the
    boolean mask of the first side; the row indices are formed only when a
    refit runs.  When an iteration's mask has the same bytes as that of
    the last refit, those ridge targets are reused without a refit,
    provided they depended on the partition alone: both sides had
    ``min_subset`` rows and neither kept its current parameters.  The
    reused targets are the bits a refit would return.
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
    # A CSV-loaded X is column-major and its y strided.  Refits gather rows
    # from C-ordered copies, where take is fastest and gives the same
    # arrays; Xa keeps its layout for the matvecs, whose bits depend on it.
    rows, y = np.ascontiguousarray(Xa), np.ascontiguousarray(y)
    if start is None:
        start = initialize_params(X, y, config.ridge_alpha, config.seed)
    th = np.array(start, dtype=float)
    alpha, min_subset, auto = config.ridge_alpha, config.min_subset, config.auto_step
    fixed = None if auto else float(config.step)

    v, a, b = _evaluate(Xa, y, th, kind)
    trace = [v]
    first = _first_side(a, b, kind)
    n1 = int(np.count_nonzero(first))
    sizes = [(n1, n - n1)]
    mu_trace: list[float] = []
    converged = False
    # The bytes of the partition mask whose targets were last refitted, if
    # those targets depend on the partition alone.
    held = None

    for _ in range(config.t_max):
        key = first.tobytes()
        if key != held:
            target, alone = _targets(rows, y, first, th, alpha, min_subset)
            held = key if alone else None
        if auto:
            mu, new, v, a, b = _line_search(Xa, y, kind, th, target, trace[-1], config)
            if mu == 0.0:
                # No decreasing step exists along this direction; stop.
                converged = True
                break
        else:
            mu = fixed
            new = _step(th, target, target - th, mu)
            v, a, b = _evaluate(Xa, y, new, kind)

        # Euclidean norms; math.sqrt of the dot gives np.linalg.norm's bits.
        moved = new - th
        change = math.sqrt(float(moved[0] @ moved[0])) + math.sqrt(float(moved[1] @ moved[1]))
        th = new
        first = _first_side(a, b, kind)
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
