"""Reference code that the tests compare the package against.

It is written from the docstrings and shares none of the package's fast
paths: no refit cache, no stacked pair solve, no complement reuse, and its
own objective and partition in plain NumPy.  It imports from the package
only what ``tests/test_reference_imports.py`` allows.
"""
import numpy as np

from hingetree import (
    DegenerateSystem,
    DimensionMismatch,
    HingeKind,
    NonFiniteInput,
    SplitConfig,
    augment,
    initialize_params,
    ridge_solve,
)
from hingetree.linear import check_training


def _check_pair(theta1, theta2, d: int):
    """``[theta1, theta2]`` as float arrays, or the package's typed error.

    Raises :class:`DimensionMismatch` unless both have length d+1, and
    :class:`NonFiniteInput` if a coefficient is NaN or infinite.
    """
    thetas = [np.asarray(theta, dtype=float) for theta in (theta1, theta2)]
    if any(theta.shape != (d + 1,) for theta in thetas):
        raise DimensionMismatch(f"expected two coefficient vectors of length {d + 1}")
    if not all(np.isfinite(theta).all() for theta in thetas):
        raise NonFiniteInput("coefficient vectors contain a NaN or infinite value")
    return thetas


def _is_max(kind) -> bool:
    """Whether ``kind`` is the max hinge; ``TypeError`` unless it is a :class:`HingeKind`."""
    if kind is HingeKind.MAX:
        return True
    if kind is HingeKind.MIN:
        return False
    raise TypeError(f"kind must be a HingeKind, got {kind!r}")


def objective(X, y, theta1, theta2, kind) -> float:
    """Node objective: half the summed squared error of the hinge prediction.

    The prediction is ``max(a, b)`` or ``min(a, b)`` of the side values
    ``a = Xa @ theta1`` and ``b = Xa @ theta2`` on the augmented rows.
    Samples are checked as the package checks them, and the pair as a
    split's start; a ``kind`` that is not a :class:`HingeKind` raises
    ``TypeError``.
    """
    X, y = check_training(X, y)
    Xa = augment(X)
    theta1, theta2 = _check_pair(theta1, theta2, X.shape[1])
    a, b = Xa @ theta1, Xa @ theta2
    r = y - (np.maximum(a, b) if _is_max(kind) else np.minimum(a, b))
    return 0.5 * float(r @ r)


def partition(X, theta1, theta2, kind):
    """Row indices ``(S1, S2)``, disjoint and exhaustive, of the hinge comparison.

    With the side values of :func:`objective`, row j is in S1 iff
    ``a[j] >= b[j]`` for max and ``b[j] >= a[j]`` for min, so ties go to S1.
    A NaN or infinite value in ``X`` raises :class:`NonFiniteInput`.
    """
    Xa = augment(X)
    if not np.isfinite(Xa).all():
        raise NonFiniteInput("partition data contains a NaN or infinite value")
    theta1, theta2 = _check_pair(theta1, theta2, Xa.shape[1] - 1)
    a, b = Xa @ theta1, Xa @ theta2
    first = a >= b if _is_max(kind) else b >= a
    return np.flatnonzero(first), np.flatnonzero(~first)


def _check_indices(idx, n: int) -> np.ndarray:
    """The row indices ``idx`` of one side as an integer array, or ``ValueError``.

    A boolean mask or non-integer values are rejected, not cast, so a
    replay cannot refit other rows than the partition's; an empty side is
    allowed.
    """
    idx = np.asarray(idx)
    if idx.size == 0:
        return np.empty(0, dtype=np.intp)
    if idx.ndim != 1 or idx.dtype.kind not in "iu":
        raise ValueError("a side must be a 1-D array of integer row indices")
    if idx.min() < 0 or idx.max() >= n:
        raise ValueError(f"row indices must lie in [0, {n})")
    return idx


def damped_update(X, y, s1, s2, theta1, theta2, mu: float, alpha: float = 0.0,
                  min_subset: int = 2):
    """One damped Newton step with the partition (s1, s2) held fixed: ``(theta1', theta2')``.

    ``s1`` and ``s2`` are the integer row indices of the two sides.  Each
    side is refitted by :func:`~hingetree.ridge_solve` on its rows, and
    keeps its current parameters when it has fewer than ``min_subset``
    rows or its system is degenerate.  The step is
    ``theta + mu * (fit - theta)``, or the fit itself at ``mu == 1``.
    Raises ``ValueError`` unless ``mu`` lies in (0, 1], ``alpha`` and
    ``min_subset`` pass :class:`~hingetree.SplitConfig`'s checks, and each
    side is a 1-D integer index array within the rows (a boolean mask is
    rejected); samples and parameters are checked as the package checks
    them.
    """
    if not 0.0 < mu <= 1.0:
        raise ValueError("mu must lie in (0, 1]")
    SplitConfig(ridge_alpha=alpha, min_subset=min_subset)  # checks both as a split does
    X, y = check_training(X, y)
    n, d = X.shape
    thetas = _check_pair(theta1, theta2, d)
    Xa = augment(X)
    new = []
    for idx, theta in zip((_check_indices(s1, n), _check_indices(s2, n)), thetas):
        fit = theta
        if idx.size >= min_subset:
            try:
                fit = ridge_solve(Xa[idx], y[idx], alpha)
            except DegenerateSystem:
                pass
        new.append(fit.copy() if mu == 1.0 else theta + mu * (fit - theta))
    return tuple(new)


def replay_public_steps(X, y, kind, config, start=None, firsts=None):
    """find_optimal_split's loop rebuilt from public primitives that it does not share.

    Each iteration refits the current partition with no cache through
    :func:`damped_update`: once under the fixed step, and once per
    candidate ``mu0 * beta**s`` of an explicit backtracking search under
    ``"auto"``, whose first candidate to lower :func:`objective` is taken.
    Returns ``(theta1, theta2, objective_trace, mu_trace, converged)``.
    ``firsts``, if a list, gets the first side of each partition refitted,
    the last search's included.
    """
    t1, t2 = start or initialize_params(X, y, config.ridge_alpha, config.seed)
    trace = [objective(X, y, t1, t2, kind)]
    mus = []
    converged = False
    fit = (config.ridge_alpha, config.min_subset)
    for _ in range(config.t_max):
        s1, s2 = partition(X, t1, t2, kind)
        if firsts is not None:
            firsts.append(s1)
        if config.auto_step:
            mu = config.mu0
            for _ in range(config.max_backtracks):
                n1, n2 = damped_update(X, y, s1, s2, t1, t2, mu, *fit)
                value = objective(X, y, n1, n2, kind)
                if value < trace[-1]:
                    break
                mu *= config.beta
            else:
                converged = True
                break
        else:
            mu = float(config.step)
            n1, n2 = damped_update(X, y, s1, s2, t1, t2, mu, *fit)
            value = objective(X, y, n1, n2, kind)
        change = float(np.linalg.norm(n1 - t1) + np.linalg.norm(n2 - t2))
        t1, t2 = n1, n2
        trace.append(value)
        mus.append(mu)
        if change < config.epsilon:
            converged = True
            break
    return t1, t2, trace, mus, converged
