"""Built-in benchmark: one small sparse tensor, nine partition/exponent
configurations, frozen reference eigenvalues.

The 3x3x3 tensor has five unit entries chosen so that the three natural
partitions exercise all the structural regimes: the single-block and the
all-singleton partitions are weakly irreducible, while the two-block
partition is only strictly nonnegative (its coupling digraph is not
strongly connected).  ``run_benchmark`` solves every configuration with both
methods and flags eigenvalues deviating from the references by more than
``LAMBDA_TOL``, plus any disagreement with the reference criticality marks.
"""
from __future__ import annotations

import time
import warnings
from dataclasses import dataclass
from fractions import Fraction

from .solvers import SolverOptions, solve
from .spectral_maps import make_problem
from .structure import _side_of_one
from .tensor_core import CooTensor

__all__ = [
    "reference_tensor",
    "BenchCase",
    "BENCH_CASES",
    "LAMBDA_TOL",
    "run_benchmark",
    "format_table",
]

#: Reference eigenvalues are quoted to three decimals; flag beyond this.
LAMBDA_TOL = 5e-3


def reference_tensor() -> CooTensor:
    """The bundled 3x3x3 benchmark tensor (five unit entries)."""
    entries = [
        (0, 0, 2),
        (0, 2, 0),
        (1, 1, 0),
        (1, 1, 1),
        (2, 1, 0),
    ]
    return CooTensor((3, 3, 3), entries, [1.0] * len(entries))


@dataclass(frozen=True)
class BenchCase:
    """One benchmark configuration.

    ``mark_ref`` is the reference position of ``sum(nu_i/p_i)`` relative to
    1 (``"<"``, ``"="`` or ``">"``); ``run_benchmark`` recomputes the mark
    and surfaces any disagreement instead of silently adopting either side.
    """

    partition_spec: str
    blocks: tuple[tuple[int, ...], ...]
    p: tuple[str, ...]
    lambda_ref: float
    mark_ref: str


BENCH_CASES: tuple[BenchCase, ...] = (
    BenchCase("1,2,3", ((0, 1, 2),), ("3",), 1.748, "="),
    BenchCase("1,2,3", ((0, 1, 2),), ("4",), 2.277, "<"),
    BenchCase("1,2,3", ((0, 1, 2),), ("5",), 2.663, "<"),
    BenchCase("1;2,3", ((0,), (1, 2)), ("2", "4"), 1.414, "<"),
    BenchCase("1;2,3", ((0,), (1, 2)), ("3", "5"), 2.167, "<"),
    BenchCase("1;2,3", ((0,), (1, 2)), ("4", "6"), 2.581, "<"),
    BenchCase("1;2;3", ((0,), (1,), (2,)), ("3", "3", "3"), 2.045, "="),
    BenchCase("1;2;3", ((0,), (1,), (2,)), ("4", "4", "4"), 2.469, "<"),
    BenchCase("1;2;3", ((0,), (1,), (2,)), ("5", "5", "5"), 2.817, "<"),
)


def _run_case(case: BenchCase, method: str, tol: float, max_iter: int) -> dict:
    prob = make_problem(reference_tensor(), case.blocks, case.p)
    opts = SolverOptions(tol=tol, max_iter=max_iter)
    t0 = time.perf_counter()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        result = solve(prob, opts=opts, method=method)
    wall = time.perf_counter() - t0
    exact = result.regime.nu_over_p_exact
    mark = _side_of_one(
        result.regime.nu_over_p, None if exact is None else Fraction(exact)
    )
    notes = []
    if abs(result.lambda_star - case.lambda_ref) > LAMBDA_TOL:
        notes.append(
            f"lambda {result.lambda_star:.6f} deviates from reference "
            f"{case.lambda_ref} by more than {LAMBDA_TOL}"
        )
    if mark != case.mark_ref:
        notes.append(
            f"computed sum(nu/p) {mark} 1 "
            f"(exact value {result.regime.nu_over_p_exact}) but the "
            f"reference table marks it {case.mark_ref!r}"
        )
    if not result.converged:
        notes.append(f"did not converge within {max_iter} iterations")
    return {
        "partition": case.partition_spec,
        "p": ",".join(case.p),
        "method": method,
        "lambda_star": result.lambda_star,
        "lambda_ref": case.lambda_ref,
        "iterations": result.iterations,
        "backtracks": sum(rec.backtracks for rec in result.trace),
        "res": result.res,
        "regime": result.regime.regime.value,
        "mark": mark,
        "mark_ref": case.mark_ref,
        "converged": result.converged,
        "wall_seconds": wall,
        "notes": notes,
    }


def run_benchmark(
    methods: tuple[str, ...] = ("lsnnm", "power"),
    tol: float = SolverOptions.tol,
    max_iter: int = SolverOptions.max_iter,
) -> list[dict]:
    """Solve all nine configurations with each method, one after another.

    Rows come in the fixed (case, method) order, and each solve is
    deterministic, so repeated runs produce identical rows (wall time aside).
    """
    return [
        _run_case(case, method, tol, max_iter)
        for case in BENCH_CASES
        for method in methods
    ]


def format_table(results: list[dict]) -> str:
    """Human-readable benchmark table with a note block for any flags."""
    header = (
        f"{'partition':<10} {'p':<8} {'method':<7} {'lambda*':>12} "
        f"{'ref':>7} {'iters':>5} {'bt':>3} {'res':>9} {'s(nu/p)':>7} "
        f"{'regime':<19} {'wall_s':>8}"
    )
    lines = [header, "-" * len(header)]
    notes: list[str] = []
    for r in results:
        lines.append(
            f"{r['partition']:<10} {r['p']:<8} {r['method']:<7} "
            f"{r['lambda_star']:>12.8f} {r['lambda_ref']:>7.3f} "
            f"{r['iterations']:>5d} {r['backtracks']:>3d} {r['res']:>9.2e} "
            f"{r['mark']:>7} {r['regime']:<19} {r['wall_seconds']:>8.4f}"
        )
        for note in r["notes"]:
            notes.append(f"  [{r['partition']} p={r['p']} {r['method']}] {note}")
    if notes:
        lines.append("")
        lines.append("notes:")
        lines.extend(notes)
    return "\n".join(lines)
