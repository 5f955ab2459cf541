"""Ridge-regularized least squares on augmented design matrices, and the affine kernel.

Every predictor in this package is affine and stored as one coefficient
vector of length d+1: feature weights first, bias last.  The solver works
on the augmented design (features plus a trailing column of ones) so the
bias lives inside the coefficient vector but stays outside the penalty.
One builder forms the normal equations for :func:`ridge_solve` and for
:func:`ridge_solve_pair`, which factorizes a hinge split's two side
systems as one stacked Cholesky with the same bits as two single solves.
Every routing decision and leaf value is evaluated by :func:`affine` or
its one-row form :func:`affine_row`, which perform the same floating-point
operations in the same order.  :func:`check_training` is the one check of
training inputs, shared by the split, tree and boost layers.
"""
from __future__ import annotations

import functools

import numpy as np

from .errors import DegenerateSystem, DimensionMismatch, EmptyDataset, NonFiniteInput

# Relative diagonal jitter used for the single retry on a failed factorization.
JITTER_SCALE = 1e-10


def check_training(X, y) -> tuple[np.ndarray, np.ndarray]:
    """``(X, y)`` as a float matrix and target vector to train on, or a typed error.

    Raises :class:`EmptyDataset` without a sample or a feature,
    :class:`DimensionMismatch` when the row counts differ, and
    :class:`NonFiniteInput` when any value is NaN or infinite.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float).ravel()
    if X.ndim != 2 or X.shape[0] == 0 or X.shape[1] == 0:
        raise EmptyDataset("training data must have at least one sample and one feature")
    if X.shape[0] != y.shape[0]:
        raise DimensionMismatch("X and y row counts differ")
    if not (np.isfinite(X).all() and np.isfinite(y).all()):
        raise NonFiniteInput("training data contains a NaN or infinite value")
    return X, y


def augment(X: np.ndarray) -> np.ndarray:
    """Append the constant-1 column that carries the bias term."""
    X = np.asarray(X, dtype=float)
    if X.ndim != 2:
        raise ValueError("expected a 2-D feature matrix")
    return np.hstack([X, np.ones((X.shape[0], 1))])


@functools.lru_cache(maxsize=256)
def _penalty(p: int, alpha: float) -> np.ndarray:
    # alpha times the identity with the bias entry zeroed: the bias is not regularized.
    penalty = alpha * np.eye(p)
    penalty[-1, -1] = 0.0
    penalty.flags.writeable = False
    return penalty


def _normal_equations(X: np.ndarray, y: np.ndarray, alpha: float):
    """``(gram, rhs, system)`` of the ridge problem; ``system`` is ``gram`` when alpha is 0.

    The penalty matrix is formed once per (p, alpha) and cached read-only,
    so a system is one addition to the Gram matrix.
    """
    gram = X.T @ X
    rhs = X.T @ y
    system = gram + _penalty(X.shape[1], alpha) if alpha > 0 else gram
    return gram, rhs, system


def _spd_solve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    # L L^T x = b by two solves, on one system or a stack of them;
    # cholesky raises LinAlgError unless every a is positive definite.
    low = np.linalg.cholesky(a)
    return np.linalg.solve(np.swapaxes(low, -1, -2), np.linalg.solve(low, b[..., None]))[..., 0]


def ridge_solve(X: np.ndarray, y: np.ndarray, alpha: float = 0.0) -> np.ndarray:
    """Minimize ``0.5*||y - X @ theta||^2 + 0.5*alpha*||theta[:-1]||^2``.

    ``X`` is an augmented design whose last column is identically 1; the
    bias coefficient is excluded from the penalty.  The normal equations
    come from the builder that :func:`ridge_solve_pair` shares, and are
    solved with NumPy's Cholesky factorization (``np.linalg.cholesky``)
    and two ``np.linalg.solve`` calls on the factors.  If the
    factorization fails, one retry is made with a small jitter
    (``1e-10 * trace(X.T @ X) / (d+1)``) added to every diagonal entry;
    a second failure raises :class:`DegenerateSystem`.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float).ravel()
    if X.ndim != 2 or X.shape[0] < 1:
        raise ValueError("design matrix must be 2-D with at least one row")
    if X.shape[0] != y.shape[0]:
        raise ValueError("design and target row counts differ")
    if alpha < 0:
        raise ValueError("ridge penalty must be non-negative")
    gram, rhs, system = _normal_equations(X, y, alpha)
    try:
        return _spd_solve(system, rhs)
    except np.linalg.LinAlgError:
        pass
    p = X.shape[1]
    jitter = JITTER_SCALE * float(np.trace(gram)) / p
    try:
        return _spd_solve(system + jitter * np.eye(p), rhs)
    except np.linalg.LinAlgError:
        raise DegenerateSystem(
            "normal equations are singular even after the jitter retry"
        ) from None


def ridge_solve_pair(X1: np.ndarray, y1: np.ndarray, X2: np.ndarray, y2: np.ndarray,
                     alpha: float = 0.0):
    """Two :func:`ridge_solve` problems of one width in a single stacked factorization.

    ``X1`` and ``X2`` are augmented float designs with at least one row
    each and the same number of columns, ``y1`` and ``y2`` 1-D float
    targets; only the sign of ``alpha`` is checked.  The two systems are
    factorized as one ``(2, p, p)`` stack, which gives the same bits as two
    separate :func:`ridge_solve` calls.  Returns ``(theta1, theta2)``, or
    ``None`` when either system is not positive definite: the jitter retry
    is left to :func:`ridge_solve`.
    """
    if alpha < 0:
        raise ValueError("ridge penalty must be non-negative")
    _, rhs1, system1 = _normal_equations(X1, y1, alpha)
    _, rhs2, system2 = _normal_equations(X2, y2, alpha)
    try:
        theta = _spd_solve(np.array((system1, system2)), np.array((rhs1, rhs2)))
    except np.linalg.LinAlgError:
        return None
    return theta[0], theta[1]


def fit_or_mean(X: np.ndarray, y: np.ndarray, alpha: float = 0.0) -> np.ndarray:
    """ridge_solve with the documented fallback to the constant predictor.

    On :class:`DegenerateSystem` the returned model is all-zero weights
    with bias ``mean(y)``.
    """
    try:
        return ridge_solve(X, y, alpha)
    except DegenerateSystem:
        theta = np.zeros(X.shape[1])
        theta[-1] = float(np.mean(y))
        return theta


def affine(X: np.ndarray, theta: np.ndarray) -> np.ndarray:
    """Evaluate affine models on every row of a (non-augmented) feature matrix.

    ``theta`` is either one coefficient vector ``(w, b)`` of length d+1 for
    every row, or coefficients gathered per row: an array of shape
    ``(d+1, n, *rest)`` whose ``theta[:, i, ...]`` apply to row i, giving a
    result of shape ``(n, *rest)``; a row axis of length 1 applies the same
    coefficients to every row.

    The arithmetic is fixed: ``acc = X[:, 0] * w[0]``, then
    ``acc += X[:, j] * w[j]`` for j = 1 .. d-1 in order, then ``acc += b``;
    every step is one rounded IEEE multiply or add per value.  A value
    therefore depends only on its row and coefficients, never on the batch
    size, the other coefficients or the BLAS, and equals :func:`affine_row`
    on the same row bit for bit.  With no features the result is the bias.
    """
    X = np.asarray(X, dtype=float)
    theta = np.asarray(theta, dtype=float)
    d = X.shape[1]
    if theta.ndim > 1:
        # Each feature column broadcasts over the trailing coefficient axes.
        X = X.reshape(X.shape + (1,) * (theta.ndim - 2))
    if d == 0:
        return np.full(X.shape[:1] + theta.shape[2:], theta[-1])
    acc = X[:, 0] * theta[0]
    for j in range(1, d):
        acc += X[:, j] * theta[j]
    acc += theta[-1]
    return acc


def affine_row(x: list[float], theta: list[float]) -> float:
    """One-row form of :func:`affine` on Python floats, in the same order.

    ``x`` holds d features and ``theta`` d+1 coefficients.  Builtin
    ``sum`` (compensated from Python 3.12 on), ``math.fsum`` and fused
    multiply-add would all round differently from the batch kernel, so the
    loop is written out.
    """
    d = len(x)
    if d == 0:
        return theta[-1]
    acc = x[0] * theta[0]
    for j in range(1, d):
        acc += x[j] * theta[j]
    return acc + theta[-1]
