"""Structural precondition checks for the eigenproblem.

The existence/uniqueness theory behind the solvers needs the tensor to be,
relative to the chosen partition, either *strictly nonnegative* (every block
of the gradient map is strictly positive on positive vectors) in the
subcritical regime ``sum(nu_i/p_i) < 1``, or *weakly irreducible* (the
sparsity digraph of the structure matrix is strongly connected) up to the
critical regime ``sum(nu_i/p_i) <= 1``.  ``classify_regime`` reports which
assumption holds and which regime applies, once per problem instance; solvers
warn but do not refuse when the combination is unsupported.

Both checks run on the coupling digraph, built straight from the tensor's
positive entries without forming the dense structure matrix (see
``_coupling_digraph``); ``M_nnz`` is its number of distinct arcs
(= ``count_nonzero(structure_matrix)``).  Strong connectivity is a
breadth-first search from one vertex, plus one on the transpose unless
every block is a single mode, which makes the digraph symmetric.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction

import numpy as np

from .spectral_maps import SpectralProblem, homogeneity_data
from .tensor_core import gradient_map_jacobian

__all__ = [
    "Regime",
    "AssumptionReport",
    "structure_matrix",
    "is_strictly_nonneg",
    "is_weakly_irreducible",
    "classify_regime",
]

#: Tolerance for deciding ``sum(nu_i/p_i) == 1`` when no exact rational
#: exponents are available.
CRITICAL_TOL = 1e-12


class Regime(str, Enum):
    """Which structural assumption, if any, covers the problem."""

    STRICT_SUBCRITICAL = "StrictSubcritical"
    WEAKLY_IRR_CRITICAL = "WeaklyIrrCritical"
    BOTH_VALID = "BothValid"
    UNSUPPORTED = "Unsupported"


@dataclass(frozen=True)
class AssumptionReport:
    """Outcome of the structural checks for one problem.

    ``nu_over_p_exact`` is the exact rational value of ``sum(nu_i/p_i)`` as a
    string when the exponents were given exactly, else ``None``.  ``rho_A``
    is the Perron root of the homogeneity matrix.  It solves
    ``sum_i nu_i c_i/(rho + c_i) = 1`` with ``c_i = 1/(p_i - 1)``, whose
    left side is strictly decreasing in ``rho`` and equals ``nu_over_p`` at
    ``rho = 1``; so ``rho_A`` sits on the same side of 1 as ``nu_over_p``,
    up to rounding.  ``M_nnz`` is the number of distinct arcs of the
    coupling digraph (= ``count_nonzero(structure_matrix)``).
    """

    strict_nonneg: bool
    weakly_irreducible: bool
    nu_over_p: float
    regime: Regime
    M_nnz: int
    rho_A: float
    nu_over_p_exact: str | None = None

    def to_dict(self) -> dict:
        return {
            "strict_nonneg": self.strict_nonneg,
            "weakly_irreducible": self.weakly_irreducible,
            "nu_over_p": self.nu_over_p,
            "nu_over_p_exact": self.nu_over_p_exact,
            "regime": self.regime.value,
            "M_nnz": self.M_nnz,
            "rho_A": self.rho_A,
        }


def structure_matrix(prob: SpectralProblem) -> np.ndarray:
    """Structure matrix: the gradient-map Jacobian at the all-ones vector.

    Entry ``(row of block i, column of block l)`` aggregates every tensor
    entry that couples the two coordinates, so its sparsity pattern is the
    coupling digraph of the problem.
    """
    return gradient_map_jacobian(prob, prob.ones())


def _distinct(codes: np.ndarray) -> np.ndarray:
    """Distinct values of a sorted integer array, moved to its front in place
    2**16 at a time; a neighbour mask is much cheaper here than ``np.unique``."""
    keep = np.empty(codes.size, dtype=bool)
    keep[:1] = True
    np.not_equal(codes[1:], codes[:-1], out=keep[1:])
    m = 0
    for a in range(0, codes.size, 1 << 16):
        piece = codes[a:a + (1 << 16)][keep[a:a + (1 << 16)]]
        codes[m:m + piece.size] = piece
        m += piece.size
    return codes[:m]


def _reaches_all(first: np.ndarray, deg: np.ndarray, heads: np.ndarray, n: int) -> bool:
    """True when a breadth-first search from vertex 0 visits all ``n``
    vertices; the heads of ``v`` are ``heads[first[v]:first[v] + deg[v]]``.
    A level is expanded about 4·n arcs at a time, and the search returns as
    soon as every vertex is seen.  Each level makes about ten numpy calls, so
    a long path is not cheap: a 50,000-vertex cycle takes over a second."""
    seen = np.zeros(n, dtype=bool)
    seen[0] = True
    slot = np.empty(n, dtype=np.intp)
    front = np.zeros(1, dtype=np.intp)
    count, step = 1, 4 * n
    while front.size and count < n:
        d = deg[front]
        ends = np.cumsum(d)
        offs = first[front] - ends + d  # arc position minus position in level
        cuts = [] if ends[-1] <= step else np.searchsorted(ends, range(step, ends[-1], step))
        found = []
        for a, b in zip([0, *cuts], [*cuts, front.size]):
            nxt = heads[np.repeat(offs[a:b], d[a:b]) + np.arange(ends[a] - d[a], ends[b - 1])]
            nxt = nxt[~seen[nxt]]
            if b - a > 1:  # dedupe (one tail's heads are distinct): the last slot write wins
                k = np.arange(nxt.size)
                slot[nxt] = k
                nxt = nxt[slot[nxt] == k]
            seen[nxt] = True
            count += nxt.size
            if count == n:
                return True
            found.append(nxt)
        front = found[0] if len(found) == 1 else np.concatenate(found)
    return count == n


def _csr(arcs: np.ndarray, n: int, shift: int) -> tuple[np.ndarray, ...]:
    """CSR ``(first, deg, heads)`` of sorted distinct codes; heads overwrite them."""
    first = np.searchsorted(arcs, np.arange(n + 1, dtype=arcs.dtype) << shift)
    return first, np.diff(first), np.bitwise_and(arcs, (1 << shift) - 1, out=arcs)


def _coupling_digraph(prob: SpectralProblem) -> tuple[bool, bool, int]:
    """``(strict_nonneg, weakly_irreducible, M_nnz)`` from the sparse
    coupling digraph, without forming :func:`structure_matrix`.

    Each entry ``e`` with a positive value gives, for every block's leading
    mode ``s`` and every other mode ``q``, the arc from coordinate
    ``offsets[mode_block[s]] + e_s`` to ``offsets[mode_block[q]] + e_q``:
    exactly the positive entries of the structure matrix.  Arcs are coded
    ``row << shift | col`` in int32 when every code fits, else in int64,
    written straight from the index columns into one code array, sorted and
    deduplicated in place; a ``searchsorted`` of the codes gives the CSR
    pointers, and a mask leaves the heads.
    """
    part = prob.partition
    n = part.total_dim
    shift = (n - 1).bit_length()
    # int8 and int16 codes would page in numpy kernels that nothing else
    # uses (about 0.4 MB resident), more than such small arrays save
    top = (n - 1) << shift | (n - 1)
    dt = np.int32 if top <= np.iinfo(np.int32).max else np.int64
    idx = prob.tensor.indices
    positive = prob.tensor.values > 0.0
    if not positive.all():
        idx = idx[positive]
    offs = [part.offsets[i] for i in part.mode_block]
    pairs = [(s, q) for s in part.starts for q in range(part.order) if q != s]
    nz = idx.shape[0]
    codes = np.empty(len(pairs) * nz, dtype=dt)
    for j, (s, q) in enumerate(pairs):
        # the low bits of row << shift are zero, so adding the column sets them
        piece = codes[j * nz:(j + 1) * nz]
        np.left_shift(idx[:, s], shift, out=piece)
        piece += offs[s] << shift | offs[q]
        piece += idx[:, q]
    codes.sort()
    first, deg, heads = _csr(_distinct(codes), n, shift)
    strict = bool(deg.all())
    # Strong connectivity on two or more vertices gives every vertex an
    # out-arc, and one vertex counts as irreducible only with its self-loop,
    # so ``strict`` is necessary either way; then G must be reached from
    # vertex 0, and so must its transpose unless every block is one mode:
    # then each entry gives every arc with its reverse, so G is symmetric.
    weak = strict and _reaches_all(first, deg, heads, n)
    if weak and part.order != part.d:
        heads <<= shift  # the transpose's codes, in place
        heads |= np.repeat(np.arange(n, dtype=dt), deg)
        heads.sort()
        weak = _reaches_all(*_csr(heads, n, shift), n)
    return strict, weak, heads.size


def is_strictly_nonneg(prob: SpectralProblem) -> bool:
    """True when every row of the structure matrix has a positive entry,
    i.e. the gradient map is strictly positive on positive vectors."""
    return classify_regime(prob).strict_nonneg


def is_weakly_irreducible(prob: SpectralProblem) -> bool:
    """True when the sparsity digraph of the structure matrix is strongly
    connected (single vertex: true iff it carries a self-loop)."""
    return classify_regime(prob).weakly_irreducible


def _exact_nu_over_p(prob: SpectralProblem) -> Fraction | None:
    if prob.p_exact is None:
        return None
    return sum(Fraction(nu) / pe for nu, pe in zip(prob.partition.nu, prob.p_exact))


def _side_of_one(s_float: float, s_exact: Fraction | None) -> str:
    """``"<"``, ``"="`` or ``">"``: where ``sum(nu_i/p_i)`` sits relative to 1,
    decided exactly when ``s_exact`` is given, else within ``CRITICAL_TOL``."""
    if s_exact is not None:
        return "=" if s_exact == 1 else ("<" if s_exact < 1 else ">")
    if abs(s_float - 1.0) <= CRITICAL_TOL:
        return "="
    return "<" if s_float < 1.0 else ">"


def classify_regime(prob: SpectralProblem) -> AssumptionReport:
    """Run both structural checks and classify the homogeneity regime.

    The regime is decided from ``sum(nu_i/p_i)`` directly: exactly when
    rational exponents are available, otherwise within ``CRITICAL_TOL``.
    ``rho_A`` is reported alongside; see :class:`AssumptionReport`.

    The first call for a problem instance keeps the report in its
    ``__dict__``, like the summation plan; every later call and every solve
    of that instance returns that same report.
    """
    if "_report" in vars(prob):
        return vars(prob)["_report"]
    strict, weak, m_nnz = _coupling_digraph(prob)
    s_float = prob.nu_over_p
    s_exact = _exact_nu_over_p(prob)
    side = _side_of_one(s_float, s_exact)

    if weak and side == "=":
        regime = Regime.WEAKLY_IRR_CRITICAL
    elif weak and side == "<":
        regime = Regime.BOTH_VALID
    elif strict and side == "<":
        regime = Regime.STRICT_SUBCRITICAL
    else:
        regime = Regime.UNSUPPORTED

    report = vars(prob)["_report"] = AssumptionReport(
        strict_nonneg=strict,
        weakly_irreducible=weak,
        nu_over_p=s_float,
        regime=regime,
        M_nnz=m_nnz,
        rho_A=homogeneity_data(prob).rho,
        nu_over_p_exact=None if s_exact is None else str(s_exact),
    )
    return report
