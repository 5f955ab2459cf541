import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hingetree.linear as linear
from hingetree import DegenerateSystem, augment, fit_or_mean, ridge_solve
from hingetree.linear import affine, affine_row, ridge_solve_pair
from conftest import random_regression


def penalized_objective(X, y, theta, alpha):
    r = y - X @ theta
    return 0.5 * float(r @ r) + 0.5 * alpha * float(theta[:-1] @ theta[:-1])


class TestRidgeSolve:
    def test_two_point_interpolation(self):
        X = np.array([[0.0, 1.0], [2.0, 1.0]])
        y = np.array([1.0, 3.0])
        np.testing.assert_allclose(ridge_solve(X, y, 0.0), [1.0, 1.0], atol=1e-12)

    def test_constant_target_huge_penalty(self):
        # Unregularized bias absorbs the constant even at alpha = 1e6.
        X = augment(np.array([[0.0], [1.0], [2.0]]))
        y = np.array([5.0, 5.0, 5.0])
        theta = ridge_solve(X, y, 1e6)
        np.testing.assert_allclose(theta, [0.0, 5.0], atol=1e-3)

    def test_matches_exact_rational_solution(self):
        # Oracle: form (X^T X + alpha I0) and solve in exact rational
        # arithmetic via Cramer's rule.
        X = augment(np.array([[0.0], [1.0], [3.0]]))
        y = np.array([0.0, 2.0, 3.0])
        a = Fraction(1, 2)
        g00 = Fraction(10) + a
        g01 = Fraction(4)
        g11 = Fraction(3)
        r0, r1 = Fraction(11), Fraction(5)
        det = g00 * g11 - g01 * g01
        expected = [(g11 * r0 - g01 * r1) / det, (g00 * r1 - g01 * r0) / det]
        assert expected == [Fraction(26, 31), Fraction(17, 31)]
        theta = ridge_solve(X, y, 0.5)
        np.testing.assert_allclose(theta, [float(v) for v in expected], rtol=1e-12)

    def test_deterministic(self):
        X, y = random_regression(5, 30, 4)
        Xa = augment(X)
        a = ridge_solve(Xa, y, 0.3)
        b = ridge_solve(Xa, y, 0.3)
        assert np.array_equal(a, b)

    def test_negative_alpha_rejected(self):
        # A NaN penalty used to give the unpenalized fit, bit for bit, and an
        # infinite one a NumPy warning: every penalty outside [0, inf) is refused.
        X = augment(np.array([[0.0], [1.0]]))
        for alpha in (-1.0, np.nan, np.inf):
            for solve in (ridge_solve, fit_or_mean):
                with pytest.raises(ValueError, match="ridge penalty must be a finite non-negative"):
                    solve(X, np.array([0.0, 1.0]), alpha)

    def test_matches_pinv_oracle_unpenalized(self):
        for seed in range(40):
            gen = np.random.default_rng(seed)
            n = int(gen.integers(10, 51))
            d = int(gen.integers(1, 9))
            X, y = random_regression(seed, n, d)
            Xa = augment(X)
            theta = ridge_solve(Xa, y, 0.0)
            oracle = np.linalg.pinv(Xa) @ y
            np.testing.assert_allclose(theta, oracle, rtol=1e-8, atol=1e-10)

    def test_matches_augmented_lstsq_oracle_penalized(self):
        # Ridge as plain least squares on sqrt(alpha)-scaled extra rows
        # hitting the weights only.
        for seed in range(40):
            gen = np.random.default_rng(1000 + seed)
            n = int(gen.integers(10, 51))
            d = int(gen.integers(1, 9))
            alpha = float(gen.choice([0.01, 0.1, 1.0, 10.0]))
            X, y = random_regression(seed, n, d)
            Xa = augment(X)
            extra = np.sqrt(alpha) * np.eye(d + 1)[:d]
            Xext = np.vstack([Xa, extra])
            yext = np.concatenate([y, np.zeros(d)])
            oracle, *_ = np.linalg.lstsq(Xext, yext, rcond=None)
            np.testing.assert_allclose(ridge_solve(Xa, y, alpha), oracle,
                                       rtol=1e-8, atol=1e-10)

    def test_residual_orthogonality(self):
        for seed in range(20):
            X, y = random_regression(seed, 40, 5)
            Xa = augment(X)
            theta = ridge_solve(Xa, y, 0.0)
            lhs = np.linalg.norm(Xa.T @ (y - Xa @ theta))
            assert lhs <= 1e-6 * np.linalg.norm(Xa.T @ y)

    def test_monotone_weight_shrinkage(self):
        X, y = random_regression(3, 50, 6)
        Xa = augment(X)
        alphas = [0.0, 0.01, 0.1, 1.0, 10.0, 100.0]
        norms = [np.linalg.norm(ridge_solve(Xa, y, a)[:-1]) for a in alphas]
        for small, large in zip(norms, norms[1:]):
            assert large <= small + 1e-9

    def test_objective_optimality_under_perturbation(self):
        X, y = random_regression(11, 35, 4)
        Xa = augment(X)
        alpha = 0.37
        theta = ridge_solve(Xa, y, alpha)
        base = penalized_objective(Xa, y, theta, alpha)
        gen = np.random.default_rng(99)
        for _ in range(100):
            delta = gen.normal(size=theta.shape)
            delta *= 1e-3 / np.linalg.norm(delta)
            assert penalized_objective(Xa, y, theta + delta, alpha) >= base - 1e-12

    def test_jitter_retry_handles_duplicate_rows(self):
        # Rank-deficient at alpha=0; the jitter retry still produces a
        # finite fit with near-zero residual on the duplicated sample.
        Xa = augment(np.array([[1.0], [1.0], [1.0]]))
        y = np.array([2.0, 2.0, 2.0])
        theta = ridge_solve(Xa, y, 0.0)
        assert np.all(np.isfinite(theta))
        assert abs(affine_row([1.0], theta.tolist()) - 2.0) < 1e-6

    def test_jitter_retry_has_the_bits_of_its_formula(self):
        # A zero feature column: the Gram matrix has a zero pivot, so only the retry solves.
        Xa = augment(np.array([[0.0], [0.0], [0.0]]))
        y = np.array([1.0, 2.0, 4.0])
        gram = Xa.T @ Xa
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.cholesky(gram)
        jitter = linear.JITTER_SCALE * float(np.trace(gram)) / 2
        want = public_spd_solve(gram + jitter * np.eye(2), Xa.T @ y)
        assert ridge_solve(Xa, y, 0.0).tobytes() == want.tobytes()

    def test_degenerate_system_raised_when_factorization_fails(self, monkeypatch):
        def always_fail(a, b):
            raise np.linalg.LinAlgError("not positive definite")

        monkeypatch.setattr(linear, "_spd_solve", always_fail)
        Xa = augment(np.array([[0.0], [1.0]]))
        with pytest.raises(DegenerateSystem):
            ridge_solve(Xa, np.array([1.0, 2.0]), 0.0)

    @pytest.mark.parametrize("X, y, message", [
        (np.zeros((0, 2)), np.zeros(0), "design matrix must be 2-D with at least one row"),
        (np.ones(3), np.ones(3), "design matrix must be 2-D with at least one row"),
        (np.ones((3, 2)), np.ones(2), "design and target row counts differ"),
    ], ids=["no-rows", "one-dimensional", "row-counts"])
    def test_malformed_design_rejected(self, X, y, message):
        with pytest.raises(ValueError, match=message):
            ridge_solve(X, y, 0.0)

    def test_augment_rejects_a_vector(self):
        with pytest.raises(ValueError, match="expected a 2-D feature matrix"):
            augment(np.ones(3))

    def test_fit_or_mean_constant_fallback(self, monkeypatch):
        def always_fail(a, b):
            raise np.linalg.LinAlgError("not positive definite")

        monkeypatch.setattr(linear, "_spd_solve", always_fail)
        Xa = augment(np.array([[0.0], [1.0], [2.0]]))
        theta = fit_or_mean(Xa, np.array([1.0, 2.0, 6.0]), 0.0)
        np.testing.assert_allclose(theta, [0.0, 3.0])


def augmented(gen, n, p):
    return augment(gen.normal(size=(n, p - 1)))


def public_spd_solve(a, b):
    """The oracle: NumPy's public Cholesky, then two public solves on the factors."""
    low = np.linalg.cholesky(a)
    return np.linalg.solve(np.swapaxes(low, -1, -2), np.linalg.solve(low, b[..., None]))[..., 0]


def spd_system(gen, p):
    X = gen.normal(size=(int(gen.integers(p, 4 * p + 1)), p))
    return X.T @ X + 1e-3 * np.eye(p), X.T @ gen.normal(size=X.shape[0])


class TestSpdSolve:
    """``_spd_solve`` calls LAPACK gufuncs that NumPy keeps internal; its bits are pinned here."""

    @pytest.mark.parametrize("p", range(1, 18))
    def test_matches_the_public_wrappers_bit_for_bit(self, p):
        gen = np.random.default_rng(100 + p)
        for _ in range(20):
            a, b = spd_system(gen, p)
            assert linear._spd_solve(a, b).tobytes() == public_spd_solve(a, b).tobytes()
            a2, b2 = spd_system(gen, p)
            A, B = np.array((a, a2)), np.array((b, b2))
            out = linear._spd_solve(A, B)
            assert out.shape == (2, p)
            assert out.tobytes() == public_spd_solve(A, B).tobytes()

    @pytest.mark.parametrize("a", [
        np.array([[1.0, 2.0], [2.0, 1.0]]),  # indefinite
        np.array([[[4.0, 0.0], [0.0, 1.0]], [[1.0, 1.0], [1.0, 1.0]]]),  # second one singular
        np.zeros((2, 3, 3)),
    ])
    def test_not_positive_definite_raises_without_a_warning(self, a):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(np.linalg.LinAlgError):
                linear._spd_solve(a, np.ones(a.shape[:-1]))


class TestDotMatchesMatmul:
    """The fit's products go through ``ndarray.dot``; every value keeps the bits of ``@``.

    ``split._evaluate`` and ``split.find_optimal_split`` form their matvecs
    and dot products, and ``linear._normal_equations`` its Gram matrices
    and right-hand sides (into slots of a stack), with ``dot`` rather than
    ``@`` or ``np.matmul``, on rows gathered with ``take`` as the refit
    gathers them.
    """

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 3000),
           p=st.sampled_from([1, 2, 3, 17]), magnitude=st.floats(1e-3, 1e3))
    def test_dot_has_the_bits_of_matmul(self, seed, n, p, magnitude):
        gen = np.random.default_rng(seed)
        pool = augment(magnitude * gen.normal(size=(n + 50, p - 1)))
        rows = gen.permutation(n + 50)[:n]
        X = pool.take(rows, axis=0)
        y = (magnitude * gen.normal(size=n + 50)).take(rows)
        v = magnitude * gen.normal(size=p)
        assert X.dot(v).tobytes() == (X @ v).tobytes()
        assert y.dot(y).tobytes() == (y @ y).tobytes()
        gram, gram_method, gram_matmul = np.empty((3, 1, p, p))
        np.dot(X.T, X, out=gram[0])
        X.T.dot(X, out=gram_method[0])
        np.matmul(X.T, X, out=gram_matmul[0])
        assert gram.tobytes() == gram_matmul.tobytes() == gram_method.tobytes()
        # The jitter retry forms the Gram matrix again, without an output slot.
        assert X.T.dot(X).tobytes() == gram_matmul[0].tobytes()
        rhs, rhs_method, rhs_matmul = np.empty((3, 1, p))
        np.dot(X.T, y, out=rhs[0])
        X.T.dot(y, out=rhs_method[0])
        np.matmul(X.T, y, out=rhs_matmul[0])
        assert rhs.tobytes() == rhs_matmul.tobytes() == rhs_method.tobytes()


class TestRidgeSolvePair:
    @pytest.mark.parametrize("alpha", [0.0, 1e-3, 0.1])
    def test_matches_two_single_solves_bit_for_bit(self, alpha):
        gen = np.random.default_rng(31)
        for _ in range(80):
            p = int(gen.integers(2, 18))
            X1 = augmented(gen, int(gen.integers(p, 6 * p)), p)
            X2 = augmented(gen, int(gen.integers(p, 6 * p)), p)
            y1 = gen.normal(size=X1.shape[0])
            y2 = gen.normal(size=X2.shape[0])
            pair = ridge_solve_pair(X1, y1, X2, y2, alpha)
            assert pair.shape == (2, p)
            theta1, theta2 = pair
            assert theta1.tobytes() == ridge_solve(X1, y1, alpha).tobytes()
            assert theta2.tobytes() == ridge_solve(X2, y2, alpha).tobytes()

    def test_singular_side_returns_none(self):
        # Identical rows make the unpenalized system singular; the jitter
        # retry belongs to ridge_solve alone.
        X1 = augment(np.ones((4, 2)))
        X2 = augmented(np.random.default_rng(3), 10, 3)
        assert ridge_solve_pair(X1, np.arange(4.0), X2, np.ones(10), 0.0) is None
        assert ridge_solve_pair(X2, np.ones(10), X1, np.arange(4.0), 0.0) is None
        assert np.all(np.isfinite(ridge_solve(X1, np.arange(4.0), 0.0)))

    def test_negative_alpha_rejected(self):
        X = augment(np.array([[0.0], [1.0]]))
        for alpha in (-1.0, np.nan, np.inf):
            with pytest.raises(ValueError, match="ridge penalty must be a finite non-negative"):
                ridge_solve_pair(X, np.ones(2), X, np.ones(2), alpha)


class TestAffineRow:
    def test_constant_model(self):
        assert affine_row([12.0, -3.0], [0.0, 0.0, 4.5]) == 4.5

    def test_coordinate_projection(self):
        assert affine_row([7.0, 1.0, -2.0], [1.0, 0.0, 0.0, 0.0]) == 7.0

    def test_hand_arithmetic(self):
        assert affine_row([1.0, 4.0], [2.0, -1.0, 3.0]) == 1.0


class TestAffine:
    @pytest.mark.parametrize("d", [1, 2, 17, 64])
    def test_matches_left_to_right_loop_and_row_form(self, d):
        gen = np.random.default_rng(d)
        X = gen.normal(size=(30, d))
        theta = gen.normal(size=d + 1)
        out = affine(X, theta)
        for row, value in zip(X, out):
            acc = float(row[0]) * float(theta[0])
            for j in range(1, d):
                acc = acc + float(row[j]) * float(theta[j])
            acc = acc + float(theta[-1])
            assert value == acc
            assert affine_row(row.tolist(), theta.tolist()) == value

    def test_no_features_is_the_bias(self):
        assert affine(np.empty((3, 0)), np.array([2.5])).tolist() == [2.5] * 3
        assert affine_row([], [2.5]) == 2.5

    @pytest.mark.parametrize("d", [0, 1, 2, 17])
    def test_coefficients_gathered_per_row_match_the_row_form(self, d):
        gen = np.random.default_rng(d)
        X = gen.normal(size=(12, d))
        table = gen.normal(size=(d + 1, 5))
        index = gen.integers(0, 5, size=(12, 3))
        out = affine(X, table.take(index, axis=1))
        assert out.shape == (12, 3)
        for i, row in enumerate(X.tolist()):
            for k in range(3):
                assert out[i, k] == affine_row(row, table[:, index[i, k]].tolist())
        # A row axis of length 1 applies the same coefficients to every row.
        shared = affine(X, table[:, None, :])
        assert shared.shape == (12, 5)
        for k in range(5):
            assert shared[:, k].tobytes() == affine(X, table[:, k]).tobytes()
