"""Solvers for the positive block-spectral eigenpair.

Both methods run one loop, which owns the start-point checks, the stopping
rule on the certificate, the trace and the result; each method supplies only
its first iterate and its step:

``newton_noda``
    Newton's method on the bordered system (eigen residual + normalization
    constraint), safeguarded by a positivity-preserving Armijo backtracking
    line search, with the eigenvalue refreshed each iteration as the largest
    componentwise ratio.  Globally convergent with an asymptotically
    quadratic tail on problems passing the structural checks.  Up to
    ``_DENSE_MAX_N`` unknowns a step costs one dense factorization of the
    bordered matrix; above it, restarted GMRES solves the bordered system
    from products with the Jacobian in factored form (one gather per mode,
    one scatter per block), so no N x N matrix is formed.  GMRES runs to an
    Eisenstat-Walker forcing term, loose while the bracket is wide and
    ``_KRYLOV_RTOL`` in the tail; an inexact step that would not lower the
    eigenvalue is solved again to ``_KRYLOV_RTOL``.  A GMRES that misses the
    tolerance it was given raises ``KrylovStalled``.  The first iterate is
    the retraction of the start point; the line search hands on the ratios
    at its accepted point and their max, and only the certificate evaluates
    them again, at the blockwise normalization.

``power_iteration``
    Normalized fixed-point iteration of the power map.  Linearly convergent
    at best, but simple and derivative-free; used as an independent
    cross-check of the Newton solver.  Its iterates are normalized
    blockwise, so the certificate is read off the one evaluation per step.

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
    _bordered_operator,
    _eigen_system,
    _newton_matrix,
    _power_update,
    _ratio,
    normalize_blocks,
    ratio_map,
    require_positive,
    retract,
)
from .structure import AssumptionReport, Regime, classify_regime
from .tensor_core import conform, gradient_map

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
    """Options shared by both solvers.

    Parameters
    ----------
    tol:
        Stop when the certified relative bracket gap drops to this value.
    max_iter:
        Iteration cap; hitting it yields ``converged=False``, not an error.
    armijo_c:
        Sufficient-decrease coefficient of the line search.
    backtrack_rho:
        Step-halving factor; trial steps are ``backtrack_rho ** j``.
    max_backtracks:
        Budget of step reductions before the line search gives up.
    """

    tol: float = 1e-12
    max_iter: int = 500
    armijo_c: float = 1e-2
    backtrack_rho: float = 0.5
    max_backtracks: int = 60

    def __post_init__(self) -> None:
        if not self.tol > 0.0:
            raise ValueError("tol must be positive")
        for name, least in (("max_iter", 1), ("max_backtracks", 0)):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < least:
                raise ValueError(f"{name} must be an integer >= {least}, got {value!r}")
        if not 0.0 < self.armijo_c < 1.0:
            raise ValueError("armijo_c must lie in (0, 1)")
        if not 0.0 < self.backtrack_rho < 1.0:
            raise ValueError("backtrack_rho must lie in (0, 1)")


@dataclass(frozen=True)
class IterRecord:
    """One row of a solve trace.

    ``lambda_k`` is the max ratio at the current iterate, ``delta_k`` the
    eigenvalue correction proposed by the Newton step taken *from* this
    iterate (0 on the terminal row and for the power method), ``alpha_k``
    the accepted step length ``backtrack_rho ** backtracks``, ``res`` the
    certified relative bracket gap, ``cw_lower`` the min ratio at the
    blockwise-normalized iterate, ``h_norm`` the max-norm of the bordered
    root function, and ``tangency`` the (normalized) constraint-gradient
    component of the step direction, which an exact Newton step keeps at
    roundoff level; on the GMRES path it sits at the level of the step's
    forcing term.
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
    return _bracket(prob, x)[3]


def newton_step(prob: SpectralProblem, x: BlockVector, lam: float):
    """Solve the bordered Newton system at ``(x, lam)``.

    Returns ``(d, delta)``: the update direction in ``x`` (tangent to the
    normalization surface when ``norm_product(x) == 1``) and the eigenvalue
    correction, which is nonpositive when ``lam`` is the max ratio at ``x``.
    """
    phi = ratio_map(prob, x).flat
    d, delta, _ = _newton_step(prob, x, phi, lam, _eigen_system(prob, x, phi, lam))
    return x._with_flat(d), delta


#: Largest N solved by a dense factorization.  With forcing terms GMRES is
#: as fast from about N = 150 on (p = 4,4,4 ring cubes, 5 iterations, one
#: BLAS thread: dense against GMRES 3.7 against 5.8 ms a solve at N = 60,
#: 5.3 against 5.8 ms at N = 90, 6.0 against 5.4-6.0 ms at N = 150, 12.0-13.5
#: against 7.1-8.8 ms at N = 210, 25-26 against 7.6-9.7 ms at N = 300, 43
#: against 9.7 ms at N = 390), and it needs no (N+1)^2 matrix.  The cut stays
#: at 300 so that solves up to that size keep their bits.
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


def _newton_step(
    prob: SpectralProblem,
    x: BlockVector,
    phi: np.ndarray,
    lam: float,
    H: np.ndarray,
    rtol: float = _KRYLOV_RTOL,
):
    """``(d, delta, tangency)`` from the ratios ``phi`` and root function ``H``
    at ``(x, lam)``; the tangency is the step's component along the border
    row, the constraint gradient.  Up to ``_DENSE_MAX_N`` unknowns the
    bordered matrix is formed and factored; above it GMRES solves the
    equilibrated system to the relative tolerance ``rtol``, and again to
    ``_KRYLOV_RTOL`` when the looser step has a nonnegative ``delta``, or
    raises ``KrylovStalled``; so does a ``lam`` of 0, which the system is
    scaled by."""
    n = x.flat.size
    if n > _DENSE_MAX_N:
        if not lam > 0.0:
            raise KrylovStalled("every ratio is 0 (lambda = 0): the system scaled by 1/lambda is undefined")
        matvec, diag, g = _bordered_operator(prob, x, phi, lam)
        rhs = -H
        rhs[:n] /= lam
        precond = np.append(1.0 / diag, 1.0)

        def krylov(tol: float) -> np.ndarray:
            return gmres(
                matvec, rhs, precond, rtol=tol, restart=_KRYLOV_RESTART, max_iter=_KRYLOV_MAX_ITER
            )

        sol = krylov(rtol)
        if sol[n] >= 0.0 and rtol > _KRYLOV_RTOL:
            # an inexact step must still lower lambda (Noda's monotonicity)
            sol = krylov(_KRYLOV_RTOL)
        sol[n] *= lam
    else:
        DH = _newton_matrix(prob, x, phi, lam)
        g = DH[n, :n]
        try:
            sol = lu_solve(DH, -H)
        except SingularMatrix as e:
            raise SingularNewtonSystem(f"bordered Newton matrix is singular: {e}") from e
    d = sol[:n]
    tangency = abs(float(g @ d)) / (1.0 + float(np.abs(d).max()))
    return d, float(sol[n]), tangency


def line_search(
    prob: SpectralProblem,
    x: BlockVector,
    lam: float,
    d: BlockVector,
    delta: float,
    opts: SolverOptions,
):
    """Backtrack until the trial point is strictly positive *and* the
    retracted point satisfies the Armijo decrease on the max ratio.

    Positivity is tested with an exact componentwise ``> 0``; a diagnostic
    warning fires when an accepted point has a component within
    ``1e-12 * |x|_inf`` of the boundary.  Returns
    ``(alpha, x_next, backtracks)``.
    """
    alpha, x_next, _, _, backtracks = _line_search(prob, x, lam, d.flat, delta, opts)
    return alpha, x_next, backtracks


def _line_search(prob, x, lam, d, delta, opts):
    """:func:`line_search` on a flat direction ``d``, returning ``(alpha, x_next,
    phi_next, lam_next, backtracks)``: also the ratios at ``x_next`` and their max."""
    floor = 1e-12 * float(np.abs(x.flat).max())
    for j in range(opts.max_backtracks + 1):
        alpha = opts.backtrack_rho ** j
        trial = x.flat + alpha * d
        if not (trial > 0.0).all():
            continue
        x_next = retract(prob, x._with_flat(trial))
        phi_next = _ratio(prob, x_next, gradient_map(prob, x_next).flat)
        lam_next = float(phi_next.max())
        if lam_next <= lam + opts.armijo_c * alpha * delta:
            if (trial < floor).any():
                _warn("accepted iterate has a component within 1e-12*|x|_inf of the positivity boundary")
            return alpha, x_next, phi_next, lam_next, j
    raise LineSearchFailed(
        f"no acceptable step after {opts.max_backtracks} backtracks"
    )


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


def _bracket(prob: SpectralProblem, x: BlockVector):
    """``(xbar, hi, lo, res)`` at the blockwise normalization ``xbar`` of ``x``."""
    xbar = normalize_blocks(prob, x)
    return (xbar, *_cw_bracket(ratio_map(prob, xbar).flat))


def _certified_loop(prob, x0, opts, report, method, start, step) -> SolveResult:
    """The loop both solvers share.  An iterate is ``(x, phi, lam, cert,
    carry)``: a point, its flat ratios, their max, its certificate ``(xbar, hi,
    lo, res)`` and what the method's next step needs.  ``start(x0)`` gives the
    first; ``step(x, phi, lam, res, H, carry, opts)`` the next, with its trace
    entries ``(delta, alpha, backtracks, tangency)``."""
    opts = opts or SolverOptions()
    if report is None:
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
    require_positive(x0)
    it = start(x0)
    trace: list[IterRecord] = []
    for k in range(opts.max_iter + 1):
        x, phi, lam, (xbar, hi, lo, res), carry = it
        H = _eigen_system(prob, x, phi, lam)
        h_norm = float(np.abs(H).max())
        converged = res <= opts.tol
        if converged or k == opts.max_iter:
            trace.append(IterRecord(k, lam, 0.0, 1.0, 0, res, lo, h_norm))
            break
        it, (delta, alpha, backtracks, tangency) = step(x, phi, lam, res, H, carry, opts)
        trace.append(
            IterRecord(k, lam, delta, alpha, backtracks, res, lo, h_norm, tangency)
        )
    return SolveResult(
        lambda_star=0.5 * (hi + lo),
        x=xbar,
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
    *,
    report: AssumptionReport | None = None,
) -> SolveResult:
    """Line-search Newton iteration for the positive eigenpair.

    Starts from the retraction of ``x0`` (all-ones by default), refreshes
    the eigenvalue estimate as the max ratio at every iterate, takes damped
    Newton steps on the bordered system, and stops once the certified
    bracket gap falls to ``opts.tol`` or the iteration cap is reached.
    ``report`` is ``classify_regime(prob)`` when the caller already has it.
    """

    def start(x):
        x = retract(prob, x)
        phi = ratio_map(prob, x).flat
        return x, phi, float(phi.max()), _bracket(prob, x), -math.inf

    def step(x, phi, lam, res, H, last_delta, opts):
        eta = _forcing_term(res, lam, last_delta)
        d, delta, tangency = _newton_step(prob, x, phi, lam, H, eta)
        alpha, x, phi, lam, backtracks = _line_search(prob, x, lam, d, delta, opts)
        return (x, phi, lam, _bracket(prob, x), delta), (delta, alpha, backtracks, tangency)

    return _certified_loop(prob, x0, opts, report, "lsnnm", start, step)


def power_iteration(
    prob: SpectralProblem,
    x0: BlockVector | None = None,
    opts: SolverOptions | None = None,
    *,
    report: AssumptionReport | None = None,
) -> SolveResult:
    """Normalized power iteration on the power map, with the same certified
    stopping rule as the Newton solver.  ``report`` is
    ``classify_regime(prob)`` when the caller already has it."""

    def start(x):
        x = normalize_blocks(prob, x)
        G = gradient_map(prob, x).flat
        phi = _ratio(prob, x, G)
        hi, lo, res = _cw_bracket(phi)
        return x, phi, hi, (x, hi, lo, res), G

    def step(x, phi, lam, res, H, G, opts):
        x = x._with_flat(_power_update(prob, G))
        return start(x), (0.0, 1.0, 0, 0.0)

    return _certified_loop(prob, x0, opts, report, "power", start, step)


def solve(
    prob: SpectralProblem,
    x0: BlockVector | None = None,
    opts: SolverOptions | None = None,
    *,
    method: str = "lsnnm",
    report: AssumptionReport | None = None,
) -> SolveResult:
    """Run :func:`newton_noda` (``method="lsnnm"``) or :func:`power_iteration`
    (``"power"``), looked up at call time so that a rebound (e.g. profiled)
    solver is the one run, handing on a report the caller already has."""
    if method == "lsnnm":
        return newton_noda(prob, x0, opts, report=report)
    if method == "power":
        return power_iteration(prob, x0, opts, report=report)
    raise ValueError(f"unknown method {method!r}")
