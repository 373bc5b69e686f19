"""Linear-algebra kernels.

Dense linear solves go straight to LAPACK through numpy; large sparse
systems are solved by GMRES, which needs only the product with the
matrix and so never forms it.
"""
from __future__ import annotations

import math

import numpy as np

from .errors import KrylovStalled, SingularMatrix

__all__ = ["lu_solve", "gmres"]


def lu_solve(A, rhs) -> np.ndarray:
    """Solve ``A x = rhs`` with LAPACK's LU with partial pivoting (``gesv``).

    Raises :class:`ValueError` when ``A`` is not square or ``rhs`` has the
    wrong length, and :class:`~specrad.errors.SingularMatrix` when LAPACK
    meets an exactly zero pivot or the solution is not finite.  No relative
    pivot threshold is applied, so a nonsingular system whose rows differ
    widely in scale is solved rather than rejected.
    """
    A = np.asarray(A, dtype=np.float64)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError(f"matrix must be square, got shape {A.shape}")
    b = np.asarray(rhs, dtype=np.float64).ravel()
    if b.size != A.shape[0]:
        raise ValueError(f"rhs of length {b.size} incompatible with {A.shape}")
    try:
        x = np.linalg.solve(A, b)
    except np.linalg.LinAlgError as e:
        raise SingularMatrix(str(e)) from e
    if not np.all(np.isfinite(x)):
        raise SingularMatrix("solution has non-finite entries")
    return x


def gmres(matvec, b, precond, *, rtol: float, restart: int, max_iter: int) -> np.ndarray:
    """Solve ``A x = b`` by restarted GMRES, right-preconditioned by the
    diagonal ``precond`` (``A`` is seen only through ``matvec(v) = A @ v``).

    Each cycle builds an Arnoldi basis of at most ``restart`` vectors,
    orthogonalized by classical Gram-Schmidt applied twice, and reduces the
    Hessenberg matrix by Givens rotations.  A cycle ends when the rotated
    residual estimate meets ``rtol * |b|``; the solution is returned only
    once the true residual ``|b - A x|`` meets it too.  Raises
    :class:`~specrad.errors.KrylovStalled` when ``max_iter`` inner
    iterations in all do not reach it, or when the system is singular on
    the Krylov space or a product is not finite.
    """
    b = np.asarray(b, dtype=np.float64)
    x = np.zeros(b.size)
    target = rtol * float(np.linalg.norm(b))
    r, used = b, 0
    while True:
        beta = float(np.linalg.norm(r))
        if beta <= target:
            return x
        if used >= max_iter or not np.isfinite(beta):
            raise KrylovStalled(
                f"GMRES relative residual {beta / np.linalg.norm(b):.3g} after "
                f"{used} iterations misses rtol {rtol:.3g}"
            )
        m = min(restart, max_iter - used)
        V = np.empty((m + 1, b.size))
        R = np.zeros((m + 1, m))
        rot = []
        # the column, its rotations and g are Python floats, not numpy scalars
        g = [beta] + [0.0] * m
        V[0] = r / beta
        for j in range(m):
            w = matvec(precond * V[j])
            if not np.all(np.isfinite(w)):
                raise KrylovStalled("GMRES met a non-finite matrix product")
            for _ in range(2):
                h = V[: j + 1] @ w
                w -= h @ V[: j + 1]
                R[: j + 1, j] += h
            col, hn = R[: j + 1, j].tolist(), float(np.linalg.norm(w))
            for i, (c, s) in enumerate(rot):
                col[i], col[i + 1] = c * col[i] + s * col[i + 1], c * col[i + 1] - s * col[i]
            rr = math.hypot(col[j], hn)
            if not math.isfinite(rr) or rr == 0.0:
                raise KrylovStalled("GMRES met a singular or non-finite Krylov system")
            rot.append((col[j] / rr, hn / rr))
            R[:j, j], R[j, j] = col[:j], rr
            g[j], g[j + 1] = rot[j][0] * g[j], -rot[j][1] * g[j]
            used += 1
            if abs(g[j + 1]) <= target or j + 1 == m:
                break
            V[j + 1] = w / hn
        y = np.linalg.solve(R[: j + 1, : j + 1], g[: j + 1])
        x = x + precond * (y @ V[: j + 1])
        r = b - matvec(x)

