"""Solvers for the positive block-spectral eigenpair.

Both methods run one loop, which owns the start-point checks, the stopping
rule on the certificate, the trace and the result; each method supplies only
its first iterate and its step, on flat arrays (the result's ``x`` alone is
made a block vector):

``newton_noda``
    Newton's method on the bordered system (eigen residual + normalization
    constraint), safeguarded by a positivity-preserving Armijo backtracking
    line search with the fixed constants ``_ARMIJO_C``, ``_BACKTRACK_RHO``
    and ``_MAX_BACKTRACKS``, with the eigenvalue refreshed each iteration as
    the largest componentwise ratio.  Globally convergent with an
    asymptotically quadratic tail on problems passing the structural checks.
    Up to ``_DENSE_MAX_N`` unknowns a step costs one dense factorization of
    the bordered matrix; above it, restarted GMRES solves the bordered
    system, equilibrated by ``1/lam``, from products with the Jacobian in
    factored form (one gather per column of each summation piece, one
    pairwise row sum per piece), so no N x N matrix is formed.  GMRES runs
    to an Eisenstat-Walker forcing term, loose while the bracket is wide and
    ``_KRYLOV_RTOL`` in the tail; an inexact step that would not lower the
    eigenvalue is solved again to ``_KRYLOV_RTOL``.  A GMRES that misses the
    tolerance it was given raises ``KrylovStalled``.  The first iterate is
    the retraction of the start point; the line search hands on the ratios
    at its accepted point and their max, which the certificate rescales to
    the blockwise normalization by one exact factor per block.  The block
    norms it takes serve the root function and the step: once per iterate.

``power_iteration``
    Normalized fixed-point iteration of the power map, accelerated by
    Anderson mixing in the log coordinates ``y = log x``.  A mixed candidate
    is kept only if its certified bracket gap does not grow; otherwise the
    plain power iterate is taken, whose rate is linear at best.  The method
    stays derivative-free and is used as an independent cross-check of the
    Newton solver.  Its iterates are normalized blockwise, so the
    certificate is read off the ratios as they are.

Convergence is certified through Collatz-Wielandt bounds: with the iterate
normalized blockwise, the min and max componentwise ratios bracket the
spectral radius, so their relative gap

    res = (max_ratio - min_ratio) / min_ratio

bounds the relative eigenvalue error at every scale of the tensor.  The
reported eigenvalue is the bracket midpoint.
"""
from __future__ import annotations

import math
import numbers
import sys
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    KrylovStalled,
    LineSearchFailed,
    SingularMatrix,
    SingularNewtonSystem,
)
from .linalg import gmres, lu_solve
from .spectral_maps import (
    BlockVector,
    SpectralProblem,
    _block_norms,
    _eigen_system,
    _newton_matrix,
    _norm_product_grad,
    _normalize,
    _power_update,
    _ratio,
    _residual_terms,
    _retract,
    normalize_blocks,
    ratio_map,
    require_positive,
)
from .structure import AssumptionReport, Regime, classify_regime
from .tensor_core import _jacobian_product, conform, gradient_map

__all__ = [
    "SolverOptions",
    "IterRecord",
    "SolveResult",
    "newton_step",
    "line_search",
    "newton_noda",
    "power_iteration",
    "certified_residual",
    "solve",
]


@dataclass(frozen=True)
class SolverOptions:
    """Options shared by both solvers; the Newton line search's constants are
    ``_ARMIJO_C``, ``_BACKTRACK_RHO`` and ``_MAX_BACKTRACKS``.

    Parameters
    ----------
    tol:
        Stop when the certified relative bracket gap drops to this value, a
        finite positive real.
    max_iter:
        Iteration cap; hitting it yields ``converged=False``, not an error.
    """

    tol: float = 1e-12
    max_iter: int = 500

    def __post_init__(self) -> None:
        tol, max_iter = self.tol, self.max_iter
        if isinstance(tol, bool) or not isinstance(tol, numbers.Real) or not 0.0 < tol < math.inf:
            raise ValueError(f"tol must be a finite positive real, got {tol!r}")
        if isinstance(max_iter, bool) or not isinstance(max_iter, numbers.Integral) or max_iter < 1:
            raise ValueError(f"max_iter must be an integer >= 1, got {max_iter!r}")


@dataclass(frozen=True)
class IterRecord:
    """One row of a solve trace.

    ``lambda_k`` is the max ratio at the current iterate, ``delta_k`` the
    eigenvalue correction proposed by the Newton step taken *from* this
    iterate (0 on the terminal row and for the power method), ``alpha_k``
    the accepted step length ``_BACKTRACK_RHO ** backtracks``, ``res`` the
    certified relative bracket gap, ``cw_lower`` the min ratio at the
    blockwise-normalized iterate, ``h_norm`` the max-norm of the bordered
    root function, and ``tangency`` the (normalized) constraint-gradient
    component of the step direction, which an exact Newton step keeps at
    roundoff level; on the GMRES path it sits at the level of the step's
    forcing term.  The power method records ``delta_k``, ``alpha_k`` and
    ``tangency`` as 0, 1 and 0, and ``backtracks`` as 1 when the step
    rejected its Anderson candidate and took the plain iterate.
    """

    k: int
    lambda_k: float
    delta_k: float
    alpha_k: float
    backtracks: int
    res: float
    cw_lower: float
    h_norm: float
    tangency: float = 0.0


@dataclass(frozen=True)
class SolveResult:
    """Outcome of a solve.

    ``x`` is blockwise normalized and strictly positive; ``lambda_star`` is
    the midpoint of the final Collatz-Wielandt bracket ``[cw_lower,
    cw_upper]``; ``iterations`` counts update steps actually taken.
    """

    lambda_star: float
    x: BlockVector
    res: float
    cw_lower: float
    cw_upper: float
    iterations: int
    converged: bool
    method: str
    regime: AssumptionReport
    trace: tuple[IterRecord, ...] = field(default_factory=tuple)


def certified_residual(prob: SpectralProblem, x: BlockVector) -> float:
    """Relative Collatz-Wielandt bracket gap at the blockwise normalization
    of ``x``; an upper bound on the relative eigenvalue error."""
    return _cw_bracket(ratio_map(prob, normalize_blocks(prob, x)).flat)[2]


def newton_step(prob: SpectralProblem, x: BlockVector, lam: float):
    """Solve the bordered Newton system at ``(x, lam)``.

    Returns ``(d, delta)``: the update direction in ``x`` (tangent to the
    normalization surface when ``norm_product(x) == 1``) and the eigenvalue
    correction, which is nonpositive when ``lam`` is the max ratio at ``x``.
    """
    phi = ratio_map(prob, x).flat
    norms = _block_norms(prob, x.flat)
    d, delta, _ = _newton_step(prob, x.flat, phi, lam, _eigen_system(prob, x.flat, phi, lam, norms), norms)
    return x._with_flat(d), delta


#: Largest N solved by a dense factorization.  With forcing terms GMRES is
#: as fast from about N = 150 on (p = 4,4,4 ring cubes, 5 iterations, one
#: BLAS thread: dense against GMRES 3.7 against 5.8 ms a solve at N = 60,
#: 5.3 against 5.8 ms at N = 90, 6.0 against 5.4-6.0 ms at N = 150, 12.0-13.5
#: against 7.1-8.8 ms at N = 210, 25-26 against 7.6-9.7 ms at N = 300, 43
#: against 9.7 ms at N = 390), and it needs no (N+1)^2 matrix.  The cut stays
#: at 300 so that solves up to that size keep their bits; on the CLI's 30,000
#: entry N = 300 tensor (``random --dims 100,100,100 --density 0.03 --seed
#: 0``, p = 3,3,3, 4 iterations either way) dense took 12.3-12.7 ms warm
#: against 12.8-13.4 ms for GMRES.
_DENSE_MAX_N = 300
#: Tightest GMRES tolerance on the equilibrated residual, which the forcing
#: term reaches in the tail and the public ``newton_step`` always uses.  Steps
#: solved this tightly took 13-25 inner iterations in every regime tried, so
#: one basis of ``_KRYLOV_RESTART`` vectors is usually enough, and
#: ``_KRYLOV_MAX_ITER`` bounds the work spent before ``KrylovStalled``.
_KRYLOV_RTOL = 1e-13
_KRYLOV_RESTART = 60
_KRYLOV_MAX_ITER = 300
#: Largest GMRES tolerance, and the factor on the bracket gap and on the last
#: eigenvalue correction that bound it (see :func:`_forcing_term`).
_FORCING = 0.1


def _forcing_term(res: float, lam: float, last_delta: float) -> float:
    """GMRES tolerance for the Newton step from an iterate with bracket gap
    ``res`` and max ratio ``lam``, after a step that proposed the eigenvalue
    correction ``last_delta`` (infinite before the first step).

    An Eisenstat-Walker forcing term: the step is solved only as accurately
    as the iterate is, so early steps take a few products and the tail is
    still quadratic.  Both bounds are relative, so the tolerance is the same
    at every scale of the tensor.  The bound by ``|last_delta| / lam`` keeps
    steps tight once ``lam`` is accurate while the bracket is still wide (a
    critical problem); without it such a step fails the line search at full
    length and the iteration creeps.  With every ratio zero (``lam == 0``)
    that bound is left out, and the step itself breaks down.
    """
    step_bound = _FORCING * abs(last_delta) / lam if lam > 0.0 else math.inf
    return max(_KRYLOV_RTOL, min(_FORCING, _FORCING * res, step_bound))


def _krylov_solve(prob: SpectralProblem, x: np.ndarray, phi: np.ndarray, lam: float, H: np.ndarray,
                  g: np.ndarray, rtol: float) -> np.ndarray:
    """``(d, delta)``, stacked: the bordered Newton system at the flat
    ``(x, lam)``, with border row ``g``, solved by GMRES from products, never
    formed.  Its residual rows and right-hand side are scaled by ``1/lam``
    and its last unknown is ``delta/lam``, so the system is the same at every
    scale of the tensor: ``(diag(a) - diag(s) @ DG) v / lam + x * t`` over
    ``g . v`` (:func:`~specrad.spectral_maps._residual_terms`, with ``DG v``
    from :func:`~specrad.tensor_core._jacobian_product`).  The Jacobi
    preconditioner is ``lam / a``: the scaled diagonal without the part from
    ``DG``, which is zero unless a block has more than one mode.  Solved to
    ``rtol``, and again to ``_KRYLOV_RTOL`` when that step has a nonnegative
    ``delta``; a missed tolerance, or a ``lam`` of 0, raises ``KrylovStalled``."""
    if not lam > 0.0:
        raise KrylovStalled("every ratio is 0 (lambda = 0): the system scaled by 1/lambda is undefined")
    n = x.size
    a, s = _residual_terms(prob, x, phi, lam)
    diag, scale = a / lam, s / lam
    DG = _jacobian_product(prob, x)

    def matvec(v: np.ndarray) -> np.ndarray:
        d = v[:n]
        out = np.empty(n + 1)
        out[:n] = diag * d - scale * DG(d) + x * v[n]
        out[n] = g @ d
        return out

    rhs = -H
    rhs[:n] /= lam
    precond = np.append(1.0 / diag, 1.0)

    def krylov(tol: float) -> np.ndarray:
        return gmres(matvec, rhs, precond, rtol=tol, restart=_KRYLOV_RESTART, max_iter=_KRYLOV_MAX_ITER)

    sol = krylov(rtol)
    if sol[n] >= 0.0 and rtol > _KRYLOV_RTOL:
        # an inexact step must still lower lambda (Noda's monotonicity)
        sol = krylov(_KRYLOV_RTOL)
    sol[n] *= lam
    return sol


def _newton_step(prob: SpectralProblem, x: np.ndarray, phi: np.ndarray, lam: float, H: np.ndarray,
                 norms: np.ndarray, rtol: float = _KRYLOV_RTOL):
    """``(d, delta, tangency)`` from the ratios ``phi``, root function ``H``
    and block ``norms`` at the flat ``(x, lam)``; the tangency is the step's
    component along the border row, the constraint gradient.  Up to
    ``_DENSE_MAX_N`` unknowns the bordered matrix is formed and factored;
    above it :func:`_krylov_solve` solves the system to ``rtol``."""
    n = x.size
    if n > _DENSE_MAX_N:
        g = _norm_product_grad(prob, x, norms)
        sol = _krylov_solve(prob, x, phi, lam, H, g, rtol)
    else:
        DH = _newton_matrix(prob, x, phi, lam, norms)
        g = DH[n, :n]
        try:
            sol = lu_solve(DH, -H)
        except SingularMatrix as e:
            raise SingularNewtonSystem(f"bordered Newton matrix is singular: {e}") from e
    d = sol[:n]
    tangency = abs(float(g @ d)) / (1.0 + float(np.abs(d).max()))
    return d, float(sol[n]), tangency


#: The line search's sufficient-decrease coefficient, its step reduction
#: (trial steps are ``_BACKTRACK_RHO ** j``) and its budget of reductions.
_ARMIJO_C = 1e-2
_BACKTRACK_RHO = 0.5
_MAX_BACKTRACKS = 60


def line_search(prob: SpectralProblem, x: BlockVector, lam: float, d: BlockVector, delta: float):
    """Backtrack until the trial point is strictly positive *and* the
    retracted point satisfies the Armijo decrease on the max ratio.

    Positivity is tested with an exact componentwise ``> 0``; a diagnostic
    warning fires when an accepted point has a component within
    ``1e-12 * |x|_inf`` of the boundary.  Returns
    ``(alpha, x_next, backtracks)``.
    """
    for v in (x, d):
        conform(prob.partition, v)
    alpha, x_next, _, _, backtracks = _line_search(prob, x.flat, lam, d.flat, delta)
    return alpha, x._with_flat(x_next), backtracks


def _line_search(prob, x, lam, d, delta):
    """:func:`line_search` on flat ``x`` and ``d``, returning ``(alpha, x_next,
    phi_next, lam_next, backtracks)``: also the ratios at ``x_next`` and their max."""
    floor = 1e-12 * float(np.abs(x).max())
    for j in range(_MAX_BACKTRACKS + 1):
        alpha = _BACKTRACK_RHO ** j
        trial = x + alpha * d
        if not (trial > 0.0).all():
            continue
        x_next = _retract(prob, trial)
        phi_next = _ratio(prob, x_next, _gradient(prob, x_next))
        lam_next = float(phi_next.max())
        if lam_next <= lam + _ARMIJO_C * alpha * delta:
            if (trial < floor).any():
                _warn("accepted iterate has a component within 1e-12*|x|_inf of the positivity boundary")
            return alpha, x_next, phi_next, lam_next, j
    raise LineSearchFailed(f"no acceptable step after {_MAX_BACKTRACKS} backtracks")


def _gradient(prob: SpectralProblem, x: np.ndarray) -> np.ndarray:
    """The flat gradient map at the flat point ``x``, evaluated by the public
    :func:`gradient_map`, so that a rebound (counted) one sees every call."""
    return gradient_map(prob, prob._layout._with_flat(x)).flat


def _warn(message: str) -> None:
    """Warn with a ``RuntimeWarning`` located at the first caller outside this
    module, however many of its functions lie between."""
    frame, level = sys._getframe(), 1
    while frame is not None and frame.f_code.co_filename == __file__:
        frame, level = frame.f_back, level + 1
    warnings.warn(message, RuntimeWarning, stacklevel=level)


def _cw_bracket(phi: np.ndarray):
    """``(hi, lo, res)``: the max and min of the flat ratios ``phi`` and
    their certified relative gap ``(hi - lo) / lo``, infinite unless ``lo > 0``."""
    hi = float(phi.max())
    lo = float(phi.min())
    return hi, lo, (hi - lo) / lo if lo > 0.0 else math.inf


def _bracket(prob: SpectralProblem, x: np.ndarray, phi: np.ndarray):
    """``(n, (xbar, hi, lo, res))``: the block norms of the flat ``x`` and the
    certificate at its blockwise normalization, from the ratios ``phi`` at
    ``x``.  Block ``i`` of the gradient map has degree ``nu_l`` in block ``l
    != i`` and ``nu_i - 1`` in block ``i``, so the ratios at ``xbar`` are
    ``phi_i * n_i**p_i / prod_l n_l**nu_l``."""
    n = _block_norms(prob, x)
    scale = n ** prob.p / (n ** prob.partition.nu).prod()
    return n, (x / n[prob._coord_block], *_cw_bracket(phi * scale[prob._coord_block]))


def _certified_loop(prob, x0, opts, method, start, step) -> SolveResult:
    """The loop both solvers share.  An iterate is ``(x, phi, lam, norms,
    cert, carry)``, flat: a point no caller holds, its ratios, their max, its
    block norms, its certificate ``(xbar, hi, lo, res)`` and what the next
    step needs.  ``start(x0.flat)`` gives the first; ``step(x, phi, lam,
    norms, res, H, carry)`` the next, with its trace entries ``(delta,
    alpha, backtracks, tangency)``."""
    opts = opts or SolverOptions()
    report = classify_regime(prob)
    if report.regime is Regime.UNSUPPORTED:
        _warn(
            "structural assumptions not satisfied "
            f"(strict_nonneg={report.strict_nonneg}, "
            f"weakly_irreducible={report.weakly_irreducible}, "
            f"nu_over_p={report.nu_over_p:.6g}); convergence is not "
            "guaranteed, attempting the solve anyway"
        )
    if x0 is None:
        x0 = prob.ones()
    conform(prob.partition, x0)
    require_positive(x0.flat)
    it = start(x0.flat)
    trace: list[IterRecord] = []
    for k in range(opts.max_iter + 1):
        x, phi, lam, norms, (xbar, hi, lo, res), carry = it
        H = _eigen_system(prob, x, phi, lam, norms)
        h_norm = float(np.abs(H).max())
        converged = res <= opts.tol
        if converged or k == opts.max_iter:
            trace.append(IterRecord(k, lam, 0.0, 1.0, 0, res, lo, h_norm))
            break
        it, (delta, alpha, backtracks, tangency) = step(x, phi, lam, norms, res, H, carry)
        trace.append(
            IterRecord(k, lam, delta, alpha, backtracks, res, lo, h_norm, tangency)
        )
    return SolveResult(
        lambda_star=0.5 * (hi + lo),
        x=prob._layout._with_flat(xbar),
        res=res,
        cw_lower=lo,
        cw_upper=hi,
        iterations=k,
        converged=converged,
        method=method,
        regime=report,
        trace=tuple(trace),
    )


def newton_noda(
    prob: SpectralProblem,
    x0: BlockVector | None = None,
    opts: SolverOptions | None = None,
) -> SolveResult:
    """Line-search Newton iteration for the positive eigenpair.

    Starts from the retraction of ``x0`` (all-ones by default), refreshes
    the eigenvalue estimate as the max ratio at every iterate, takes damped
    Newton steps on the bordered system, and stops once the certified
    bracket gap falls to ``opts.tol`` or the iteration cap is reached.
    """

    def start(x):
        x = _retract(prob, x)
        phi = _ratio(prob, x, _gradient(prob, x))
        return x, phi, float(phi.max()), *_bracket(prob, x, phi), -math.inf

    def step(x, phi, lam, norms, res, H, last_delta):
        eta = _forcing_term(res, lam, last_delta)
        d, delta, tangency = _newton_step(prob, x, phi, lam, H, norms, eta)
        alpha, x, phi, lam, backtracks = _line_search(prob, x, lam, d, delta)
        return (x, phi, lam, *_bracket(prob, x, phi), delta), (delta, alpha, backtracks, tangency)

    return _certified_loop(prob, x0, opts, "lsnnm", start, step)


#: Secant pairs in ``power_iteration``'s Anderson window: the nine reference
#: cases took 183, 121, 107, 95, 93 and 94 gradient evaluations in all with
#: m = 1, 2, 3, 5, 10 and 20 (499 unmixed).  The m x m Gram matrix is solved,
#: not the N x m window: 0.07 against 0.20 ms at N = 6,000 (a gradient
#: evaluation: 0.58 ms), 4.0 against 13.0 ms at N = 300,000 (62 ms); one
#: BLAS thread of a Xeon.
_ANDERSON_M = 5


def _anderson(prob: SpectralProblem, y: np.ndarray, f: np.ndarray, dy: np.ndarray, df: np.ndarray) -> np.ndarray:
    """The type-II Anderson point ``exp(y + f - gamma @ (dy + df))``, blockwise
    normalized, with ``gamma`` minimizing ``|f - gamma @ df|`` (a rank-safe
    ``lstsq`` on the Gram matrix).  Each block's largest exponent is shifted to
    0, so nothing overflows; a component that underflows comes out 0."""
    gamma = np.linalg.lstsq(df @ df.T, df @ f, rcond=None)[0]
    z = y + f - gamma @ dy - gamma @ df
    z -= np.maximum.reduceat(z, prob.partition.offsets)[prob._coord_block]
    return _normalize(prob, np.exp(z))


def power_iteration(
    prob: SpectralProblem,
    x0: BlockVector | None = None,
    opts: SolverOptions | None = None,
) -> SolveResult:
    """Normalized power iteration on the power map, accelerated by Anderson
    mixing, with the same certified stopping rule as the Newton solver.

    In ``y = log x``, where the power map is nonexpansive in a weighted
    Hilbert-Thompson metric (Gautier, Tudisco & Hein), the plain step is
    ``g(y) = log normalize(power_map(e**y))``.  From the second step on, a
    ring of the last ``_ANDERSON_M`` steps in ``y`` and the changes they made
    in ``f = g(y) - y`` mixes a candidate (:func:`_anderson`).  It is taken
    only if it is strictly positive and its certified ``res`` does not exceed
    the current one; otherwise the plain iterate ``e**g(y)`` is, and the trace
    books ``backtracks = 1``.  ``iterations`` counts the steps: each costs one
    gradient evaluation, plus one for a rejected candidate unless it was not
    strictly positive (``exp`` underflowed).
    """
    dy = np.empty((_ANDERSON_M, prob.partition.total_dim))
    df = np.empty_like(dy)

    def evaluate(x, *window):
        G = _gradient(prob, x)
        phi = _ratio(prob, x, G)
        hi, lo, res = _cw_bracket(phi)
        return x, phi, hi, _block_norms(prob, x), (x, hi, lo, res), (G, *window)

    def start(x):
        return evaluate(_normalize(prob, x), 0, None, None)

    def step(x, phi, lam, norms, res, H, carry):
        G, k, y_prev, f_prev = carry
        plain = _normalize(prob, _power_update(prob, G))
        y = f = None
        if plain.min() > 0.0:  # else evaluating it raises NonPositiveInput
            y = np.log(x)
            f = np.log(plain) - y
            if k:
                ring = (k - 1) % _ANDERSON_M
                np.subtract(y, y_prev, out=dy[ring])
                np.subtract(f, f_prev, out=df[ring])
                # a wild extrapolation is rejected, not warned about
                with np.errstate(all="ignore"):
                    cand = _anderson(prob, y, f, dy[:k], df[:k])
                    it = evaluate(cand, k + 1, y, f) if cand.min() > 0.0 else None
                if it is not None and it[4][3] <= res:  # the candidate's certified res
                    return it, (0.0, 1.0, 0, 0.0)
        return evaluate(plain, k + 1, y, f), (0.0, 1.0, int(k > 0), 0.0)

    return _certified_loop(prob, x0, opts, "power", start, step)


def solve(
    prob: SpectralProblem,
    x0: BlockVector | None = None,
    opts: SolverOptions | None = None,
    *,
    method: str = "lsnnm",
) -> SolveResult:
    """Run :func:`newton_noda` (``method="lsnnm"``) or :func:`power_iteration`
    (``"power"``), looked up at call time so that a rebound (e.g. profiled)
    solver is the one run."""
    if method == "lsnnm":
        return newton_noda(prob, x0, opts)
    if method == "power":
        return power_iteration(prob, x0, opts)
    raise ValueError(f"unknown method {method!r}")
