"""Ridge-regularized least squares on augmented design matrices, and the affine kernel.

Every predictor in this package is affine and stored as one coefficient
vector of length d+1: feature weights first, bias last.  The solver works
on the augmented design (features plus a trailing column of ones) so the
bias lives inside the coefficient vector but stays outside the penalty.
One builder, :func:`_normal_equations`, forms the normal equations as a
stack of systems, for :func:`ridge_solve` (a stack of one) and for
:func:`ridge_solve_pair` (a hinge split's two sides): each product is
written into its slot of the stack, and a positive penalty is added to
the whole stack in place.  One solver, :func:`_spd_solve`, factorizes a
stack by Cholesky and solves on the factors through the LAPACK gufuncs
that ``np.linalg.cholesky`` and ``np.linalg.solve`` wrap, imported from
``numpy.linalg._umath_linalg``: the wrappers' per-call Python overhead
was most of a small solve's time, and skipping it keeps their bits
(``tests/test_linear.py::TestSpdSolve`` checks this against the public
functions).  A stacked solve has the bits of single solves.  The normal
equations' products go through ``ndarray.dot``, which makes the BLAS
call of ``np.matmul`` (``dsyrk`` for the Gram matrix, ``dgemv`` for the
right-hand side) without its ufunc dispatch and so has its bits
(``tests/test_linear.py::TestDotMatchesMatmul`` pins this).
Every routing decision and leaf value is evaluated by :func:`affine` or
its one-row form :func:`affine_row`, which perform the same floating-point
operations in the same order; :func:`affine_row` takes one model's
coefficients or, elementwise, the d+1 rows of a table of many models.  A
routing decision is one affine, by the split's hyperplane ``p - q``
(:attr:`~hingetree.split.Split.direction`): the row goes first iff its
value is ``>= 0``.
:func:`check_training` is the one check of training inputs, shared by the
split, tree and boost layers.
"""
from __future__ import annotations

import functools
from collections.abc import Sequence

import numpy as np
from numpy.linalg import _umath_linalg

from .errors import DegenerateSystem, DimensionMismatch, EmptyDataset, NonFiniteInput

# Relative diagonal jitter used for the single retry on a failed factorization.
JITTER_SCALE = 1e-10


def check_training(X, y) -> tuple[np.ndarray, np.ndarray]:
    """``(X, y)`` as a C-ordered float matrix and target vector to train on, or a typed error.

    Both come back C-contiguous (a no-op for C-ordered input), so a
    training matrix read from CSV, or passed column-major, has the memory
    layout, and therefore the matrix-product bits, of its C-ordered copy.
    Raises :class:`EmptyDataset` without a sample or a feature,
    :class:`DimensionMismatch` when the row counts differ, and
    :class:`NonFiniteInput` when any value is NaN or infinite, or when a
    feature's or the target's sum of squares overflows, as a diagonal
    entry of the normal equations (:func:`_normal_equations`) or a
    residual norm then would.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float).ravel()
    if X.ndim != 2 or X.shape[0] == 0 or X.shape[1] == 0:
        raise EmptyDataset("training data must have at least one sample and one feature")
    if X.shape[0] != y.shape[0]:
        raise DimensionMismatch("X and y row counts differ")
    if not (np.isfinite(X).all() and np.isfinite(y).all()):
        raise NonFiniteInput("training data contains a NaN or infinite value")
    X, y = np.ascontiguousarray(X), np.ascontiguousarray(y)
    with np.errstate(over="ignore"):
        large = not (np.isfinite(np.einsum("ij,ij->j", X, X)).all() and np.isfinite(y.dot(y)))
    if large:
        raise NonFiniteInput("training data too large: a feature's or the target's sum of "
                             "squares overflows")
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


def _normal_equations(designs, targets, alpha: float):
    """``(rhs, system)`` of one ridge problem per (design, target), stacked.

    ``designs`` are augmented float designs of one width p and ``targets``
    their 1-D targets.  Each Gram matrix and right-hand side is one
    ``ndarray.dot`` written into its slot of a ``(k, p, p)`` and a
    ``(k, p)`` stack, with the bits of ``X.T @ X`` and ``X.T @ y``.  When
    alpha is positive the penalty matrix, formed once per (p, alpha) and
    cached read-only, is added to the whole Gram stack in place, so
    ``system`` holds the penalized matrices and no unpenalized copy is kept.
    Raises ``ValueError`` unless ``0 <= alpha < inf``: this is the one check
    of the penalty, so a NaN is never taken as no penalty.
    """
    if not 0.0 <= alpha < np.inf:
        raise ValueError(f"ridge penalty must be a finite non-negative number, got {alpha!r}")
    p = designs[0].shape[1]
    system = np.empty((len(designs), p, p))
    rhs = np.empty((len(designs), p))
    for i, (X, y) in enumerate(zip(designs, targets)):
        XT = X.T
        XT.dot(X, out=system[i])
        XT.dot(y, out=rhs[i])
    if alpha > 0:
        system += _penalty(p, alpha)
    return rhs, system


def _not_positive_definite(err, flag):
    raise np.linalg.LinAlgError("Matrix is not positive definite")


def _spd_solve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve ``a @ x = b`` for one float64 system or a stack of them, ``a`` symmetric positive definite.

    ``L L^T x = b`` by the three LAPACK gufuncs behind NumPy's public
    wrappers, ``_umath_linalg.cholesky_lo`` (``np.linalg.cholesky``) and
    ``_umath_linalg.solve`` twice (``np.linalg.solve`` with a matrix
    right-hand side), with the wrappers' signatures and floating-point
    error state but without their per-call conversions and checks, so the
    result has the wrappers' bits.  Raises ``LinAlgError`` unless every
    ``a`` is positive definite.
    """
    with np.errstate(call=_not_positive_definite, invalid="call",
                     over="ignore", divide="ignore", under="ignore"):
        low = _umath_linalg.cholesky_lo(a, signature="d->d")
        half = _umath_linalg.solve(low, b[..., None], signature="dd->d")
        return _umath_linalg.solve(low.swapaxes(-1, -2), half, signature="dd->d")[..., 0]


def ridge_solve(X: np.ndarray, y: np.ndarray, alpha: float = 0.0) -> np.ndarray:
    """Minimize ``0.5*||y - X @ theta||^2 + 0.5*alpha*||theta[:-1]||^2``.

    ``X`` is an augmented design whose last column is identically 1; the
    bias coefficient is excluded from the penalty.  The normal equations
    come from the builder that :func:`ridge_solve_pair` shares, as a stack
    of one system, and are solved by :func:`_spd_solve`: a Cholesky
    factorization and two triangular solves through LAPACK gufuncs that
    NumPy keeps internal (``numpy.linalg._umath_linalg``), with the bits of
    ``np.linalg.cholesky`` followed by two ``np.linalg.solve`` calls
    (pinned by ``tests/test_linear.py::TestSpdSolve``).  If the
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
    rhs, system = _normal_equations((X,), (y,), alpha)
    try:
        return _spd_solve(system, rhs)[0]
    except np.linalg.LinAlgError:
        pass
    p = X.shape[1]
    # The builder keeps no unpenalized Gram matrix; the rare retry forms it again.
    jitter = JITTER_SCALE * float(np.trace(X.T.dot(X))) / p
    try:
        return _spd_solve(system + jitter * np.eye(p), rhs)[0]
    except np.linalg.LinAlgError:
        raise DegenerateSystem(
            "normal equations are singular even after the jitter retry"
        ) from None


def ridge_solve_pair(X1: np.ndarray, y1: np.ndarray, X2: np.ndarray, y2: np.ndarray,
                     alpha: float = 0.0):
    """Two :func:`ridge_solve` problems of one width in a single stacked factorization.

    ``X1`` and ``X2`` are augmented float designs with at least one row
    each and the same number of columns, ``y1`` and ``y2`` 1-D float
    targets; only ``alpha`` is checked (by the builder).  The builder writes
    both systems into one ``(2, p, p)`` stack and adds the penalty to it
    once, and :func:`_spd_solve` factorizes the stack with the same LAPACK
    gufunc calls as a single system, so each row of the result has the
    bits of a separate :func:`ridge_solve` call
    (``tests/test_linear.py::TestSpdSolve`` pins the solver against
    NumPy's public wrappers).  Returns the ``(2, p)`` solution, whose rows
    are ``theta1`` and ``theta2``, or ``None`` when either system is not
    positive definite: the jitter retry is left to :func:`ridge_solve`.
    """
    rhs, system = _normal_equations((X1, X2), (y1, y2), alpha)
    try:
        return _spd_solve(system, rhs)
    except np.linalg.LinAlgError:
        return None


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


def affine_row(x: list[float], theta: Sequence) -> float | np.ndarray:
    """One-row form of :func:`affine` on Python floats, in the same order.

    ``x`` holds d features as Python floats.  ``theta`` holds d+1
    coefficients, or d+1 float arrays of one shape, such as the rows of a
    ``(d+1, k)`` table whose columns are k models; the result is then
    evaluated elementwise, an array of that shape whose entry i is
    ``affine_row(x, theta[:, i])``.  Either way every step is the rounded
    IEEE multiply or add of :func:`affine`, in its order, so a value has
    the bits of :func:`affine` on the same row and coefficients.  (Where
    two NaN operands meet, IEEE 754 leaves the sign of the result open,
    and Python's float addition and NumPy's may differ in it; finite
    features and coefficients never meet two NaNs.)  Builtin ``sum``
    (compensated from Python 3.12 on), ``math.fsum`` and fused
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
