"""Small dense linear-algebra kernels.

Linear solves go straight to LAPACK through numpy.  The Perron and
strong-component kernels are kept here because numpy has no equivalent:
the first needs a strictly positive eigenvector of a possibly cyclic
nonnegative matrix, the second a digraph's component labels.
"""
from __future__ import annotations

import numpy as np

from .errors import NoConvergence, SingularMatrix

__all__ = ["lu_solve", "dominant_eigpair", "strong_components"]


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


def dominant_eigpair(A, tol: float = 1e-14, max_iter: int = 10000):
    """Perron root and positive left-normalized eigenvector of a nonnegative
    irreducible matrix.

    Power iteration on ``A + I``; the unit diagonal shift makes the iteration
    matrix primitive, so cyclic sparsity patterns (which make plain power
    iteration oscillate) still converge.  Returns ``(rho, v)`` with ``v > 0``,
    ``sum(v) == 1`` and ``|A v - rho v|_inf <= tol * max(1, rho)``.
    """
    A = np.asarray(A, dtype=np.float64)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError(f"matrix must be square, got shape {A.shape}")
    if np.any(A < 0):
        raise ValueError("matrix must be nonnegative")
    n = A.shape[0]
    v = np.full(n, 1.0 / n)
    for _ in range(max_iter):
        w = A @ v + v
        s = w.sum()
        if s <= 0.0:
            raise NoConvergence("power iteration collapsed to the zero vector")
        v = w / s
        rho = s - 1.0
        if np.max(np.abs(A @ v - rho * v)) <= tol * max(1.0, rho):
            if not np.all(v > 0.0):
                raise NoConvergence(
                    "dominant eigenvector not strictly positive; "
                    "matrix is likely reducible"
                )
            return float(rho), v
    raise NoConvergence(f"power iteration did not converge in {max_iter} steps")


def strong_components(adjacency):
    """Strongly connected components of a directed graph (iterative Tarjan).

    ``adjacency`` is either a square array (arc ``u -> v`` iff entry
    ``[u, v] > 0``) or a list of neighbor lists.  Returns ``(count, labels)``
    where ``labels[v]`` identifies the component of vertex ``v``.  The graph
    is strongly connected exactly when ``count == 1``.
    """
    if isinstance(adjacency, np.ndarray):
        adj = [np.nonzero(row > 0)[0].tolist() for row in adjacency]
    else:
        adj = [list(neigh) for neigh in adjacency]
    n = len(adj)
    index = [-1] * n
    low = [0] * n
    onstack = [False] * n
    stack: list[int] = []
    labels = [-1] * n
    count = 0
    next_index = 0
    for root in range(n):
        if index[root] != -1:
            continue
        work = [(root, 0)]
        while work:
            v, pi = work[-1]
            if pi == 0:
                index[v] = low[v] = next_index
                next_index += 1
                stack.append(v)
                onstack[v] = True
            descended = False
            for j in range(pi, len(adj[v])):
                w = adj[v][j]
                if index[w] == -1:
                    work[-1] = (v, j + 1)
                    work.append((w, 0))
                    descended = True
                    break
                if onstack[w]:
                    low[v] = min(low[v], index[w])
            if descended:
                continue
            work.pop()
            if work:
                u = work[-1][0]
                low[u] = min(low[u], low[v])
            if low[v] == index[v]:
                while True:
                    w = stack.pop()
                    onstack[w] = False
                    labels[w] = count
                    if w == v:
                        break
                count += 1
    return count, labels
