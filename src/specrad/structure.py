"""Structural precondition checks for the eigenproblem.

The existence/uniqueness theory behind the solvers needs the tensor to be,
relative to the chosen partition, either *strictly nonnegative* (every block
of the gradient map is strictly positive on positive vectors) in the
subcritical regime ``sum(nu_i/p_i) < 1``, or *weakly irreducible* (the
sparsity digraph of the structure matrix is strongly connected) up to the
critical regime ``sum(nu_i/p_i) <= 1``.  ``classify_regime`` reports which
assumption holds and which regime applies; solvers warn but do not refuse
when the combination is unsupported.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction

import numpy as np

from .linalg import strong_components
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
    is the Perron root of the homogeneity matrix; its position relative to 1
    always matches the position of ``nu_over_p`` relative to 1.
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


def _strictly_nonneg(M: np.ndarray) -> bool:
    return bool(np.all((M > 0).any(axis=1)))


def _weakly_irreducible(M: np.ndarray) -> bool:
    if M.shape[0] == 1:
        return bool(M[0, 0] > 0)
    count, _ = strong_components(M)
    return count == 1


def is_strictly_nonneg(prob: SpectralProblem) -> bool:
    """True when every row of the structure matrix has a positive entry,
    i.e. the gradient map is strictly positive on positive vectors."""
    return _strictly_nonneg(structure_matrix(prob))


def is_weakly_irreducible(prob: SpectralProblem) -> bool:
    """True when the sparsity digraph of the structure matrix is strongly
    connected (single vertex: true iff it carries a self-loop)."""
    return _weakly_irreducible(structure_matrix(prob))


def _exact_nu_over_p(prob: SpectralProblem) -> Fraction | None:
    if prob.p_exact is None:
        return None
    return sum(
        (Fraction(nu) / pe for nu, pe in zip(prob.partition.nu, prob.p_exact)),
        Fraction(0),
    )


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

    The regime is decided from ``sum(nu_i/p_i)`` directly -- exactly when
    rational exponents are available, otherwise within ``CRITICAL_TOL`` --
    and cross-checked against the Perron root of the homogeneity matrix,
    which must sit on the same side of 1.
    """
    M = structure_matrix(prob)
    strict = _strictly_nonneg(M)
    weak = _weakly_irreducible(M)
    s_float = prob.nu_over_p
    s_exact = _exact_nu_over_p(prob)
    side = _side_of_one(s_float, s_exact)

    rho = homogeneity_data(prob).rho
    if abs(rho - 1.0) > 1e-9 and abs(s_float - 1.0) > 1e-9:
        if (rho - 1.0) * (s_float - 1.0) < 0.0:
            warnings.warn(
                "homogeneity Perron root and sum(nu/p) disagree about the "
                "regime; trusting sum(nu/p)",
                RuntimeWarning,
                stacklevel=2,
            )

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
        M_nnz=int(np.count_nonzero(M)),
        rho_A=rho,
        nu_over_p_exact=None if s_exact is None else str(s_exact),
    )
