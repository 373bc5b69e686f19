"""Structural precondition checks for the eigenproblem.

The existence/uniqueness theory behind the solvers needs the tensor to be,
relative to the chosen partition, either *strictly nonnegative* (every block
of the gradient map is strictly positive on positive vectors) in the
subcritical regime ``sum(nu_i/p_i) < 1``, or *weakly irreducible* (the
sparsity digraph of the structure matrix is strongly connected) up to the
critical regime ``sum(nu_i/p_i) <= 1``.  ``classify_regime`` reports which
assumption holds and which regime applies; solvers warn but do not refuse
when the combination is unsupported.

Both checks run on the coupling digraph, built straight from the tensor's
positive entries without forming the dense structure matrix: its arcs are
that matrix's positive entries, and ``M_nnz`` is the number of distinct arcs
of the coupling digraph (= ``count_nonzero(structure_matrix)``).  An arc
``row -> col`` is coded ``row << shift | col`` in int32 when every code
fits, else in int64, sorted, deduplicated, and split back by shift and
mask; out-degrees and CSR pointers come from ``bincount``.
Strong connectivity is a forward and a backward breadth-first search from
one vertex, each stopping as soon as all vertices are seen.
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


def _distinct(sorted_codes: np.ndarray) -> np.ndarray:
    """Distinct values of a sorted integer array; a neighbour mask, which is
    much cheaper here than ``np.unique``."""
    keep = np.empty(sorted_codes.size, dtype=bool)
    keep[:1] = True
    np.not_equal(sorted_codes[1:], sorted_codes[:-1], out=keep[1:])
    return sorted_codes[keep]


def _reaches_all(deg: np.ndarray, heads: np.ndarray, n: int) -> bool:
    """True when a breadth-first search from vertex 0 visits all ``n``
    vertices.  ``deg[v]`` is the out-degree of ``v`` and ``heads`` lists the
    arc heads grouped by tail in vertex order (CSR).  Each level costs
    O(arcs leaving its frontier), so a long path is cheap, and the search
    stops as soon as every vertex is seen."""
    first = np.zeros(n + 1, dtype=np.intp)
    np.cumsum(deg, out=first[1:])
    seen = np.zeros(n, dtype=bool)
    seen[0] = True
    slot = np.empty(n, dtype=np.intp)
    front = np.zeros(1, dtype=np.intp)
    count = 1
    while front.size and count < n:
        lo, d = first[front], deg[front]
        arcs = np.repeat(lo - (np.cumsum(d) - d), d) + np.arange(d.sum())
        front = heads[arcs]
        front = front[~seen[front]]
        # Deduplicate: of the positions holding one vertex, exactly one is
        # the position the last write to its slot left there.
        k = np.arange(front.size)
        slot[front] = k
        front = front[slot[front] == k]
        seen[front] = True
        count += front.size
    return count == n


def _coupling_digraph(prob: SpectralProblem) -> tuple[bool, bool, int]:
    """``(strict_nonneg, weakly_irreducible, M_nnz)`` from the sparse
    coupling digraph, without forming :func:`structure_matrix`.

    Each entry with a positive value gives, for every block ``i`` with
    leading mode ``s`` and every other mode ``q``, the arc
    ``offs[i] + e[s] -> offs[mode_block[q]] + e[q]``: exactly the positive
    entries of the structure matrix.  Arcs are coded ``row << shift | col``
    in int32 when every code fits, else in int64, and deduplicated by
    sorting.
    """
    part = prob.partition
    n = part.total_dim
    tensor = prob.tensor
    shift = (n - 1).bit_length()
    mask = (1 << shift) - 1
    # int8 and int16 codes would page in numpy kernels that nothing else
    # uses (about 0.4 MB resident), more than such small arrays save
    top = (n - 1) << shift | (n - 1)
    dt = np.int32 if top <= np.iinfo(np.int32).max else np.int64
    positive = tensor.values > 0.0
    keep = slice(None) if positive.all() else positive
    vert = []
    for q, i in enumerate(part.mode_block):
        v = tensor.indices[keep, q].astype(dt)
        v += part.offsets[i]
        vert.append(v)
    pairs = [(s, q) for s in part.starts for q in range(part.order) if q != s]
    nz = vert[0].size
    codes = np.empty(len(pairs) * nz, dtype=dt)
    for j, (s, q) in enumerate(pairs):
        np.bitwise_or(vert[s] << shift, vert[q], out=codes[j * nz:(j + 1) * nz])
    codes.sort()
    arcs = _distinct(codes)
    tails, heads = arcs >> shift, arcs & mask
    deg = np.bincount(tails, minlength=n)
    strict = bool(deg.all())
    # Strong connectivity on two or more vertices gives every vertex an
    # out-arc, and one vertex counts as irreducible only with its self-loop,
    # so ``strict`` is necessary either way; then G and its transpose must
    # both be reached from vertex 0.
    weak = (
        strict
        and _reaches_all(deg, heads, n)
        and _reaches_all(
            np.bincount(heads, minlength=n), np.sort(heads << shift | tails) & mask, n
        )
    )
    return strict, weak, int(arcs.size)


def is_strictly_nonneg(prob: SpectralProblem) -> bool:
    """True when every row of the structure matrix has a positive entry,
    i.e. the gradient map is strictly positive on positive vectors."""
    return _coupling_digraph(prob)[0]


def is_weakly_irreducible(prob: SpectralProblem) -> bool:
    """True when the sparsity digraph of the structure matrix is strongly
    connected (single vertex: true iff it carries a self-loop)."""
    return _coupling_digraph(prob)[1]


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
    """
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

    return AssumptionReport(
        strict_nonneg=strict,
        weakly_irreducible=weak,
        nu_over_p=s_float,
        regime=regime,
        M_nnz=m_nnz,
        rho_A=homogeneity_data(prob).rho,
        nu_over_p_exact=None if s_exact is None else str(s_exact),
    )
