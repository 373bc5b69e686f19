"""Linear-algebra kernels: LU solve and GMRES."""
import numpy as np
import pytest
from numpy.testing import assert_allclose

import specrad as sr
from specrad.errors import KrylovStalled, SingularMatrix


class TestLuSolve:
    def test_small_system(self):
        x = sr.lu_solve([[2.0, 1.0], [1.0, 2.0]], [3.0, 3.0])
        assert_allclose(x, [1.0, 1.0], atol=1e-14)

    def test_singular_matrix_raises(self):
        with pytest.raises(SingularMatrix):
            sr.lu_solve([[1.0, 1.0], [1.0, 1.0]], [1.0, 1.0])

    def test_zero_matrix_raises(self):
        with pytest.raises(SingularMatrix):
            sr.lu_solve(np.zeros((3, 3)), np.ones(3))

    def test_tiny_but_nonzero_pivot_is_solved(self):
        # a relative pivot threshold would reject this nonsingular system
        x = sr.lu_solve([[1e-15, 0.0], [0.0, 1.0]], [1.0, 1.0])
        assert_allclose(x, [1e15, 1.0])

    def test_overflowing_solution_raises(self):
        with pytest.raises(SingularMatrix):
            sr.lu_solve([[1e-300, 0.0], [0.0, 1.0]], [1e300, 1.0])

    def test_pivoting_handles_zero_leading_entry(self):
        A = np.array([[0.0, 1.0], [1.0, 0.0]])
        assert_allclose(sr.lu_solve(A, [2.0, 3.0]), [3.0, 2.0], atol=1e-15)

    def test_residuals_on_random_well_conditioned_systems(self):
        rng = np.random.default_rng(42)
        done = 0
        while done < 100:
            n = int(rng.integers(2, 12))
            A = rng.normal(size=(n, n)) + n * np.eye(n)
            if np.linalg.cond(A) >= 1e8:
                continue
            b = rng.normal(size=n)
            x = sr.lu_solve(A, b)
            scale = max(1.0, float(np.abs(b).max()))
            assert np.abs(A @ x - b).max() <= 1e-12 * scale
            done += 1

    def test_non_square_rejected(self):
        with pytest.raises(ValueError):
            sr.lu_solve(np.ones((2, 3)), np.ones(2))

    def test_rhs_length_rejected(self):
        with pytest.raises(ValueError, match="rhs of length 3"):
            sr.lu_solve(np.eye(2), np.ones(3))


def gmres_dense(A, b, precond=None, rtol=1e-13, restart=20, max_iter=500):
    A = np.asarray(A, dtype=float)
    precond = np.ones(A.shape[0]) if precond is None else precond
    return sr.gmres(lambda v: A @ v, b, precond, rtol=rtol, restart=restart, max_iter=max_iter)


class TestGmres:
    def test_true_residual_meets_rtol(self):
        rng = np.random.default_rng(7)
        for n in (1, 5, 40, 150):
            A = rng.normal(size=(n, n)) + 3 * np.sqrt(n) * np.eye(n)
            b = rng.normal(size=n)
            x = gmres_dense(A, b, restart=10)  # forces restarts for n > 10
            assert np.linalg.norm(A @ x - b) <= 1e-13 * np.linalg.norm(b)

    def test_diagonal_preconditioner_is_applied_on_the_right(self):
        # badly scaled columns: Jacobi on the right makes the system the identity
        d = np.logspace(-8, 8, 30)
        x = gmres_dense(np.diag(d), np.ones(30), precond=1.0 / d, max_iter=2)
        assert_allclose(x, 1.0 / d, rtol=1e-13)

    def test_zero_rhs_gives_zero(self):
        assert np.array_equal(gmres_dense(np.eye(3), np.zeros(3)), np.zeros(3))

    def test_cap_raises_instead_of_returning_inexact_solution(self):
        A = np.diag(np.arange(1.0, 31.0))
        with pytest.raises(KrylovStalled, match="misses rtol"):
            gmres_dense(A, np.ones(30), max_iter=5)

    def test_singular_system_raises(self):
        with pytest.raises(KrylovStalled, match="singular"):
            gmres_dense([[1.0, 0.0], [0.0, 0.0]], [0.0, 1.0])

    def test_non_finite_product_raises(self):
        with pytest.raises(KrylovStalled, match="non-finite"):
            gmres_dense([[np.inf, 0.0], [0.0, 1.0]], [1.0, 1.0])

    def test_non_finite_rhs_raises(self):
        with pytest.raises(KrylovStalled):
            gmres_dense(np.eye(2), [np.nan, 1.0])

