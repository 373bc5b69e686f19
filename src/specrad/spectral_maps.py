"""Analytic maps for the block-spectral eigenproblem.

A :class:`SpectralProblem` bundles a nonnegative tensor, a shape partition of
its modes, and one norm exponent ``p_i > 1`` per block.  A positive
eigenpair ``(lam, x)`` satisfies, blockwise,

    gradient_map(x)_i = lam * x_i**(p_i - 1),   |x_i|_{p_i} = 1,

and the spectral radius is the largest such ``lam``.  This module provides
the componentwise ratio map whose max/min give Collatz-Wielandt bounds, the
product-of-norms constraint and its gradient, the bordered Newton system of
the solver (its root function, the residual-block terms that the dense
matrix and the matrix-free step both read, and the dense matrix), the
retraction onto the constraint set, the power-iteration update map, the
block homogeneity matrix with its weighting data, and log-domain versions of
the ratio map used by convexity checks.
"""
from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

import numpy as np

from .errors import NonPositiveInput, OverflowGuard, ZeroNormBlock
from .tensor_core import (
    BlockVector,
    CooTensor,
    ShapePartition,
    _block_plans,
    _jacobian_cells,
    _read_only,
    conform,
    gradient_map,
    gradient_map_jacobian,
    validate_partition,
)

__all__ = [
    "SpectralProblem",
    "HomogeneityData",
    "CwReport",
    "make_problem",
    "ratio_map",
    "ratio_max",
    "ratio_min",
    "ratio_jacobian",
    "norm_product",
    "norm_product_grad",
    "normalize_blocks",
    "eigen_residual",
    "eigen_system",
    "residual_jacobian",
    "newton_matrix",
    "retract",
    "power_map",
    "homogeneity_data",
    "cw_bounds",
    "log_ratio_map",
    "log_ratio_jacobian",
    "log_norm_product",
    "log_norm_product_grad",
]

#: Components below this floor are skipped by the min-clause of the weighted
#: Collatz-Wielandt lower bound.  Vacuous for the strictly positive iterates
#: the solvers produce; it only matters for hand-built near-boundary points.
POSITIVITY_FLOOR = 1e-300


@dataclass(frozen=True)
class SpectralProblem:
    """A tensor, a shape partition of its modes, and norm exponents per block.

    ``p_exact`` optionally carries the exponents as exact rationals; when
    present, the regime classifier decides the knife-edge test
    ``sum(nu_i / p_i) == 1`` by exact arithmetic instead of a tolerance.

    The per-coordinate exponents and block indices, the summation plan
    ``_plan`` every kernel reads (:class:`~specrad.tensor_core._Piece` s:
    each block's entries ordered stably by its leading mode, with the runs
    each global row sums), the dense Jacobian's cells in plan order, the
    ``_layout`` that wraps flat iterates and ``classify_regime``'s
    ``_report`` are computed on first use and kept read-only; equality and
    hashing see the four fields only.
    """

    tensor: CooTensor
    partition: ShapePartition
    p: tuple[float, ...]
    p_exact: tuple[Fraction, ...] | None = None

    def __post_init__(self) -> None:
        part = self.partition
        if len(self.p) != part.d:
            raise ValueError(
                f"need one exponent per block ({part.d}), got {len(self.p)}"
            )
        if any(not math.isfinite(pi) or pi <= 1.0 for pi in self.p):
            raise ValueError(f"every exponent must satisfy p_i > 1, got {self.p}")
        for s, n in zip(part.starts, part.block_dims):
            if self.tensor.dims[s] != n:
                raise ValueError("partition does not match tensor dimensions")
        if self.p_exact is not None:
            if len(self.p_exact) != part.d:
                raise ValueError("p_exact must have one entry per block")
            for pf, pe in zip(self.p, self.p_exact):
                if abs(pf - float(pe)) > 1e-12 * max(1.0, abs(pf)):
                    raise ValueError("p_exact inconsistent with p")

    @property
    def d(self) -> int:
        return self.partition.d

    @property
    def p_conj(self) -> tuple[float, ...]:
        """Hoelder conjugates ``p_i / (p_i - 1)``."""
        return tuple(pi / (pi - 1.0) for pi in self.p)

    @cached_property
    def _p_flat(self) -> np.ndarray:
        """Per-coordinate exponents: ``p_i`` repeated over block ``i``."""
        return _read_only(np.repeat(self.p, self.partition.block_dims))

    @cached_property
    def _p_minus_one(self) -> np.ndarray:
        """``p - 1`` per coordinate, the exponent of the ratio denominator."""
        return _read_only(self._p_flat - 1.0)

    @cached_property
    def _power_exponent(self) -> np.ndarray:
        """``p' - 1 = p/(p - 1) - 1`` per coordinate, the power-map exponent."""
        return _read_only(self._p_flat / self._p_minus_one - 1.0)

    @cached_property
    def _inv_p(self) -> np.ndarray:
        """``1/p_i`` per block, the exponent taking sums of powers to norms."""
        return _read_only(1.0 / np.asarray(self.p))

    @cached_property
    def _coord_block(self) -> np.ndarray:
        """Block index of each coordinate, to spread per-block values."""
        return _read_only(np.repeat(np.arange(self.d), self.partition.block_dims))

    @cached_property
    def _plan(self) -> tuple:
        """The summation plan of every COO kernel: its summation pieces."""
        return _block_plans(self.tensor, self.partition)

    @cached_property
    def _layout(self) -> BlockVector:
        """A vector whose ``_with_flat`` makes a flat iterate a block vector."""
        return self.ones()

    @cached_property
    def _jacobian_cells(self) -> np.ndarray:
        """Flat ``row * N + col`` of each dense Jacobian weight, in plan
        order; built with the first dense Jacobian (GMRES forms none)."""
        return _jacobian_cells(self._plan, self.partition.total_dim)

    @property
    def nu_over_p(self) -> float:
        return float(sum(nu / pi for nu, pi in zip(self.partition.nu, self.p)))

    def ones(self) -> BlockVector:
        """All-ones block vector conforming to the partition."""
        return BlockVector([np.ones(n) for n in self.partition.block_dims])


def make_problem(tensor: CooTensor, blocks, p) -> SpectralProblem:
    """Build a :class:`SpectralProblem`, keeping exact-rational exponents when
    every entry of ``p`` is a rational number (an int, a NumPy integer or a
    Fraction) or a string like ``"7/3"``."""
    part = validate_partition(tensor.dims, blocks)
    floats: list[float] = []
    exact: list[Fraction] = []
    all_exact = True
    for v in p:
        if isinstance(v, bool):
            raise ValueError("boolean is not a valid exponent")
        if isinstance(v, numbers.Rational):  # NumPy integers too, as plain ints
            fr = Fraction(int(v.numerator), int(v.denominator))
        elif isinstance(v, str):
            try:
                fr = Fraction(v)
            except ZeroDivisionError:
                raise ValueError(f"exponent {v!r} has a zero denominator") from None
        else:
            floats.append(float(v))
            all_exact = False
            continue
        floats.append(float(fr))
        exact.append(fr)
    return SpectralProblem(
        tensor=tensor,
        partition=part,
        p=tuple(floats),
        p_exact=tuple(exact) if all_exact else None,
    )


def require_positive(x: np.ndarray) -> None:
    """Raise unless every component of the flat ``x`` is strictly positive
    (a NaN is not)."""
    if not x.min() > 0.0:
        raise NonPositiveInput("vector must be strictly positive componentwise")


# --------------------------------------------------------------------------
# ratio map and friends
# --------------------------------------------------------------------------

def _ratio(prob: SpectralProblem, x: np.ndarray, G: np.ndarray) -> np.ndarray:
    """Flat ratios ``G / x**(p - 1)`` from the flat gradient map ``G`` at ``x > 0``."""
    require_positive(x)
    return G / x ** prob._p_minus_one


def ratio_map(prob: SpectralProblem, x: BlockVector) -> BlockVector:
    """Componentwise Collatz-Wielandt ratios: block ``i`` is
    ``gradient_map(x)_i / x_i**(p_i - 1)``.  Requires ``x > 0``."""
    conform(prob.partition, x)
    return x._with_flat(_ratio(prob, x.flat, gradient_map(prob, x).flat))


def ratio_max(prob: SpectralProblem, x: BlockVector) -> float:
    """Largest componentwise ratio (upper Collatz-Wielandt value)."""
    return float(ratio_map(prob, x).flat.max())


def ratio_min(prob: SpectralProblem, x: BlockVector) -> float:
    """Smallest componentwise ratio (lower Collatz-Wielandt value)."""
    return float(ratio_map(prob, x).flat.min())


def ratio_jacobian(prob: SpectralProblem, x: BlockVector) -> np.ndarray:
    """Dense Jacobian of :func:`ratio_map` at ``x > 0``.

    Row-scales the gradient-map Jacobian by ``x**(1-p)`` and subtracts the
    diagonal term ``(p_i - 1) * G_i(x) * x_i**(-p_i)``.
    """
    conform(prob.partition, x)
    require_positive(x.flat)
    pe = prob._p_flat
    G = gradient_map(prob, x).flat
    DPhi = gradient_map_jacobian(prob, x) * (x.flat ** (1.0 - pe))[:, None]
    DPhi.flat[:: DPhi.shape[0] + 1] -= prob._p_minus_one * G * x.flat ** (-pe)
    return DPhi


# --------------------------------------------------------------------------
# constraint surface
# --------------------------------------------------------------------------

def _block_norms(prob: SpectralProblem, x: np.ndarray) -> np.ndarray:
    sums = np.add.reduceat(np.abs(x) ** prob._p_flat, prob.partition.offsets)
    return sums ** prob._inv_p


def _norm_product_grad(prob: SpectralProblem, x: np.ndarray, norms: np.ndarray) -> np.ndarray:
    return float(norms.prod()) * norms[prob._coord_block] ** (-prob._p_flat) * x ** prob._p_minus_one


def _normalize(prob: SpectralProblem, x: np.ndarray) -> np.ndarray:
    norms = _block_norms(prob, x)
    if not norms.all():
        raise ZeroNormBlock("cannot normalize a block with zero norm")
    return x / norms[prob._coord_block]


def _retract(prob: SpectralProblem, x: np.ndarray) -> np.ndarray:
    c = float(_block_norms(prob, x).prod())
    if c == 0.0:
        raise ZeroNormBlock("retraction undefined when a block has zero norm")
    return x / c ** (1.0 / prob.d)


def norm_product(prob: SpectralProblem, x: BlockVector) -> float:
    """Product of the blockwise p-norms (the normalization constraint)."""
    conform(prob.partition, x)
    return float(_block_norms(prob, x.flat).prod())


def norm_product_grad(prob: SpectralProblem, x: BlockVector) -> BlockVector:
    """Gradient of :func:`norm_product` at ``x > 0``."""
    conform(prob.partition, x)
    require_positive(x.flat)
    return x._with_flat(_norm_product_grad(prob, x.flat, _block_norms(prob, x.flat)))


def normalize_blocks(prob: SpectralProblem, x: BlockVector) -> BlockVector:
    """Scale each block to unit p-norm."""
    conform(prob.partition, x)
    return x._with_flat(_normalize(prob, x.flat))


def retract(prob: SpectralProblem, x: BlockVector) -> BlockVector:
    """Rescale ``x`` by a single scalar onto the surface ``norm_product == 1``."""
    conform(prob.partition, x)
    return x._with_flat(_retract(prob, x.flat))


# --------------------------------------------------------------------------
# bordered Newton system
# --------------------------------------------------------------------------

def _eigen_system(prob: SpectralProblem, x: np.ndarray, phi: np.ndarray, lam: float, norms: np.ndarray) -> np.ndarray:
    H = np.empty(x.size + 1)
    np.subtract(lam * x, phi * x, out=H[:-1])
    H[-1] = norms.prod() - 1.0
    return H


def _residual_terms(prob: SpectralProblem, x: np.ndarray, phi: np.ndarray, lam: float):
    """``(a, s)``, with ``a = lam + (p-2) * phi`` and ``s = x**(2-p)``: the
    residual block of the bordered Newton matrix at the flat ``x`` is
    ``diag(a) - diag(s) @ DG``, with ``DG`` the gradient-map Jacobian."""
    pe = prob._p_flat
    return lam + (pe - 2.0) * phi, x ** (2.0 - pe)


def _residual_jacobian(prob: SpectralProblem, x: np.ndarray, phi: np.ndarray, lam: float) -> np.ndarray:
    a, s = _residual_terms(prob, x, phi, lam)
    J = gradient_map_jacobian(prob, prob._layout._with_flat(x))
    J *= -s[:, None]
    J.flat[:: J.shape[0] + 1] += a
    return J


def _newton_matrix(prob: SpectralProblem, x: np.ndarray, phi: np.ndarray, lam: float, norms: np.ndarray) -> np.ndarray:
    J = _residual_jacobian(prob, x, phi, lam)
    n = x.size
    DH = np.zeros((n + 1, n + 1))  # after J, so the Jacobian's scratch is freed
    DH[:n, :n] = J
    DH[:n, n] = x
    DH[n, :n] = _norm_product_grad(prob, x, norms)
    return DH


def eigen_residual(prob: SpectralProblem, x: BlockVector, lam: float) -> BlockVector:
    """Residual ``lam * x - ratio_map(x) * x`` (zero exactly at eigenpairs)."""
    return x._with_flat(eigen_system(prob, x, lam)[:-1])


def eigen_system(prob: SpectralProblem, x: BlockVector, lam: float) -> np.ndarray:
    """Stacked root function: the eigen residual over the constraint defect."""
    return _eigen_system(prob, x.flat, ratio_map(prob, x).flat, lam, _block_norms(prob, x.flat))


def residual_jacobian(prob: SpectralProblem, x: BlockVector, lam: float) -> np.ndarray:
    """Jacobian of the eigen residual in ``x`` at fixed ``lam``:
    ``-diag(x**(2-p)) @ gradient_map_jacobian(x) + diag(lam + (p-2) * ratio_map(x))``."""
    phi = ratio_map(prob, x).flat
    return _residual_jacobian(prob, x.flat, phi, lam)


def newton_matrix(prob: SpectralProblem, x: BlockVector, lam: float) -> np.ndarray:
    """Bordered ``(n+1) x (n+1)`` matrix: residual Jacobian, the direction
    ``x`` in the last column, and the constraint gradient in the last row."""
    phi = ratio_map(prob, x).flat
    return _newton_matrix(prob, x.flat, phi, lam, _block_norms(prob, x.flat))


# --------------------------------------------------------------------------
# power-iteration update map and homogeneity weights
# --------------------------------------------------------------------------

def _power_update(prob: SpectralProblem, G: np.ndarray) -> np.ndarray:
    """Flat power-map values ``G**(p' - 1)`` from the flat gradient map ``G``."""
    return G ** prob._power_exponent


def power_map(prob: SpectralProblem, x: BlockVector) -> BlockVector:
    """Blockwise update map of the power iteration:
    ``gradient_map(x)_i ** (p'_i - 1)`` with ``p'`` the Hoelder conjugate.
    Defined for ``x >= 0``."""
    conform(prob.partition, x)
    return x._with_flat(_power_update(prob, gradient_map(prob, x).flat))


@dataclass(frozen=True)
class HomogeneityData:
    """Block homogeneity matrix of the power map and derived weights.

    ``A = diag(p' - 1) @ (ones nu^T - I)`` is nonnegative and irreducible;
    ``b`` is its positive left Perron vector normalized to sum one, ``rho``
    the Perron root, and ``gamma = S/(S-1)`` with ``S = sum(b_i * p'_i)``.
    """

    A: np.ndarray
    rho: float
    b: np.ndarray
    gamma: float


def homogeneity_data(prob: SpectralProblem) -> HomogeneityData:
    """Homogeneity data of ``prob`` in closed form around one LAPACK call.

    With ``c_i = p'_i - 1 = 1/(p_i - 1) > 0``, ``A = diag(c) (ones nu^T - I)``
    and ``b^T A = rho b^T`` read ``b_j (rho + c_j) = nu_j sum_i b_i c_i``, so
    ``b_j`` is proportional to ``nu_j/(rho + c_j)`` and ``rho`` is the root of
    the secular equation

        f(rho) = sum_i nu_i c_i/(rho + c_i) - 1 = 0,

    unique on ``rho > -min c_i``, where ``f`` is strictly decreasing.  The
    root is taken as the largest real part of ``eigvals(A)`` (the Perron
    root is real and dominates), and ``b > 0`` because ``rho >= 0``.  Since
    ``c_i/(1 + c_i) = 1/p_i``, ``f(1) = sum(nu_i/p_i) - 1``: ``rho`` lies on
    the same side of 1 as ``sum(nu_i/p_i)`` by construction.
    """
    nu = np.asarray(prob.partition.nu, dtype=np.float64)
    pc = np.asarray(prob.p_conj)
    c = pc - 1.0
    A = c[:, None] * (nu[None, :] - np.eye(prob.d))
    rho = float(np.linalg.eigvals(A).real.max())
    b = nu / (rho + c)
    b /= b.sum()
    S = float(b @ pc)
    gamma = S / (S - 1.0)
    A.setflags(write=False)
    b.setflags(write=False)
    return HomogeneityData(A=A, rho=rho, b=b, gamma=gamma)


@dataclass(frozen=True)
class CwReport:
    """Collatz-Wielandt bounds at one positive point (blockwise normalized).

    ``lower``/``upper`` are the plain min/max ratios; the weighted pair are
    geometric means of blockwise extremes of the power-map ratios with
    exponents ``(gamma - 1) * b_i``, and always lie inside the plain pair.
    """

    lower: float
    upper: float
    weighted_lower: float
    weighted_upper: float


def cw_bounds(prob: SpectralProblem, x: BlockVector) -> CwReport:
    """Certified bounds bracketing the spectral radius, evaluated at the
    blockwise normalization of ``x > 0``."""
    conform(prob.partition, x)
    require_positive(x.flat)
    xbar = normalize_blocks(prob, x)
    G = gradient_map(prob, xbar).flat
    phi = _ratio(prob, xbar.flat, G)
    lower = float(phi.min())
    upper = float(phi.max())
    hd = homogeneity_data(prob)
    w = (hd.gamma - 1.0) * hd.b
    ratios = _power_update(prob, G) / xbar.flat
    offs = prob.partition.offsets
    kept = np.where(xbar.flat > POSITIVITY_FLOOR, ratios, np.inf)
    return CwReport(
        lower=lower,
        upper=upper,
        weighted_lower=math.exp(float(w @ np.log(np.minimum.reduceat(kept, offs)))),
        weighted_upper=math.exp(float(w @ np.log(np.maximum.reduceat(ratios, offs)))),
    )


# --------------------------------------------------------------------------
# log-domain maps (used by the convexity and homogeneity checks)
# --------------------------------------------------------------------------

def _guard_exponents(prob: SpectralProblem, y: BlockVector, guard: float) -> None:
    conform(prob.partition, y)
    worst = float((np.abs(y.flat) * np.maximum(1.0, prob._p_flat)).max())
    if worst > guard:
        raise OverflowGuard(
            f"log-domain argument would exponentiate {worst:g} > {guard:g}"
        )


def log_ratio_map(prob: SpectralProblem, y: BlockVector, guard: float = 300.0) -> BlockVector:
    """Ratio map conjugated by exp/log: ``log(ratio_map(exp(y)))``.

    Every component is convex in ``y``; this is what the midpoint-convexity
    property tests probe.
    """
    _guard_exponents(prob, y, guard)
    x = y._with_flat(np.exp(y.flat))
    G = gradient_map(prob, x).flat
    with np.errstate(divide="ignore"):
        return y._with_flat(np.log(G) - prob._p_minus_one * y.flat)


def log_ratio_jacobian(prob: SpectralProblem, y: BlockVector, guard: float = 300.0) -> np.ndarray:
    """Exact Jacobian of :func:`log_ratio_map`, assembled from the ratio-map
    Jacobian by the chain rule."""
    _guard_exponents(prob, y, guard)
    x = y._with_flat(np.exp(y.flat))
    phi = ratio_map(prob, x)
    DPhi = ratio_jacobian(prob, x)
    return DPhi * x.flat[None, :] / phi.flat[:, None]


def log_norm_product(prob: SpectralProblem, y: BlockVector, guard: float = 300.0) -> float:
    """``log(norm_product(exp(y)))``, evaluated stably via shifted log-sum-exp."""
    _guard_exponents(prob, y, guard)
    total = 0.0
    for i in range(prob.d):
        t = prob.p[i] * y.block(i)
        hi = t.max()
        total += (hi + math.log(np.exp(t - hi).sum())) / prob.p[i]
    return total


def log_norm_product_grad(prob: SpectralProblem, y: BlockVector, guard: float = 300.0) -> BlockVector:
    """Gradient of :func:`log_norm_product`: blockwise softmax of ``p_i * y_i``.

    Its inner product with the block-constant vector ``1/p_i`` is identically
    ``sum(1/p_i)``, one of the exactness checks on the constraint geometry.
    """
    _guard_exponents(prob, y, guard)
    out = []
    for i in range(prob.d):
        t = prob.p[i] * y.block(i)
        e = np.exp(t - t.max())
        out.append(e / e.sum())
    return BlockVector(out)
