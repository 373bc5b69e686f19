"""Command-line interface.

Subcommands::

    specrad solve   --tensor FILE --partition "1;2,3" --p "2,4" [options]
    specrad check   --tensor FILE --partition "1;2,3" --p "2,4" [--json PATH]
    specrad bench   [--json PATH] [--tol T] [--max-iter N]
    specrad random  --dims "3,3,3" --density 0.5 --seed 7 [--out PATH]

Exit codes: 0 success/converged, 1 I/O or input errors, 2 iteration cap hit
(the full result document and trace are still written) or numerical
breakdown (only the error message and the structural report are written),
3 structural rejection (the tensor fails strict nonnegativity for the given
partition).
"""
from __future__ import annotations

import argparse
import json
import sys
import warnings
from dataclasses import fields

from . import __version__
from .bench import format_table, run_benchmark
from .errors import (
    KrylovStalled,
    LineSearchFailed,
    SingularNewtonSystem,
    SpecradError,
)
from .solvers import IterRecord, SolveResult, SolverOptions, solve
from .spectral_maps import SpectralProblem, make_problem
from .structure import AssumptionReport, classify_regime
from .tensor_io import (
    parse_p,
    parse_partition,
    parse_tensor,
    random_tensor,
    write_tensor,
)

_RENAMED = {"lambda_k": "lambda", "delta_k": "delta", "alpha_k": "alpha"}
#: (output name, IterRecord field) for every field; shared by the JSON and CSV traces.
_TRACE_COLUMNS = tuple((_RENAMED.get(f.name, f.name), f.name) for f in fields(IterRecord))

TRACE_HEADER = ",".join(name for name, _ in _TRACE_COLUMNS)

SCHEMA_VERSION = 2


class _Parser(argparse.ArgumentParser):
    """argparse parser whose usage errors exit with code 1, keeping 2 and 3
    reserved for solver outcomes."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="specrad", description=__doc__.split("\n\n")[0])
    parser.add_argument("--version", action="version", version=f"specrad {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    def add_problem_args(p):
        p.add_argument("--tensor", required=True, help="tensor file to read")
        p.add_argument(
            "--partition",
            required=True,
            help='mode partition, one-based, e.g. "1;2,3"',
        )
        p.add_argument(
            "--p",
            required=True,
            dest="p_spec",
            help='norm exponents per block, e.g. "2,4" (ratios like 7/3 allowed)',
        )

    sp = sub.add_parser("solve", help="compute the positive eigenpair")
    add_problem_args(sp)
    sp.add_argument("--method", choices=("lsnnm", "power"), default="lsnnm")
    sp.add_argument("--tol", type=float, default=SolverOptions.tol)
    sp.add_argument("--max-iter", type=int, default=SolverOptions.max_iter)
    sp.add_argument("--json", dest="json_path", help="write result JSON here")
    sp.add_argument("--trace", dest="trace_path", help="write per-iteration CSV here")

    cp = sub.add_parser("check", help="report structural assumptions and regime")
    add_problem_args(cp)
    cp.add_argument("--json", dest="json_path", help="write the report here too")

    bp = sub.add_parser("bench", help="run the built-in benchmark suite")
    bp.add_argument("--json", dest="json_path", help="write case results here")
    bp.add_argument("--tol", type=float, default=SolverOptions.tol)
    bp.add_argument("--max-iter", type=int, default=SolverOptions.max_iter)

    rp = sub.add_parser("random", help="generate a reproducible random tensor")
    rp.add_argument("--dims", required=True, help='dimensions, e.g. "3,3,3"')
    rp.add_argument("--density", type=float, default=1.0)
    rp.add_argument("--seed", type=int, default=0)
    rp.add_argument("--out", help="output file (default: stdout)")

    return parser


def _load_problem(args) -> SpectralProblem:
    with open(args.tensor, "r", encoding="utf-8") as fh:
        tensor = parse_tensor(fh)
    blocks = parse_partition(args.partition)
    _, exact = parse_p(args.p_spec)
    return make_problem(tensor, blocks, exact)


def _result_payload(prob: SpectralProblem, result: SolveResult) -> dict:
    part = prob.partition
    return {
        "schema_version": SCHEMA_VERSION,
        "method": result.method,
        "converged": result.converged,
        "lambda_star": result.lambda_star,
        "res": result.res,
        "cw_lower": result.cw_lower,
        "cw_upper": result.cw_upper,
        "iterations": result.iterations,
        "x": [result.x.block(i).tolist() for i in range(result.x.d)],
        "p": list(prob.p),
        "partition": {
            "blocks": [[q + 1 for q in blk] for blk in part.blocks],
            "nu": list(part.nu),
            "starts": [s + 1 for s in part.starts],
            "block_dims": list(part.block_dims),
        },
        "regime": result.regime.to_dict(),
        "trace": [
            {name: getattr(rec, f) for name, f in _TRACE_COLUMNS} for rec in result.trace
        ],
    }


def _write_json(payload: dict, path: str | None) -> None:
    text = json.dumps(payload, indent=2)
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _write_error(message: str, report: AssumptionReport, path: str | None) -> None:
    """The document written in place of a result: the error and the report."""
    _write_json(
        {"schema_version": SCHEMA_VERSION, "error": message, "regime": report.to_dict()}, path
    )


def _write_trace(result: SolveResult, path: str) -> None:
    lines = [TRACE_HEADER]
    for rec in result.trace:
        lines.append(",".join(repr(getattr(rec, f)) for _, f in _TRACE_COLUMNS))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def _cmd_solve(args) -> int:
    opts = SolverOptions(tol=args.tol, max_iter=args.max_iter)
    prob = _load_problem(args)
    report = classify_regime(prob)
    if not report.strict_nonneg:
        _write_error(
            "structural rejection: tensor is not strictly nonnegative for this "
            "partition (some gradient component vanishes identically)",
            report,
            args.json_path,
        )
        print(
            "specrad: structural rejection: strict nonnegativity fails for "
            "this partition",
            file=sys.stderr,
        )
        return 3
    with warnings.catch_warnings():
        warnings.simplefilter("always", RuntimeWarning)
        try:
            result = solve(prob, opts=opts, method=args.method)
        except (SingularNewtonSystem, KrylovStalled, LineSearchFailed) as e:
            print(f"specrad: solver breakdown: {e}", file=sys.stderr)
            _write_error(f"solver breakdown: {e}", report, args.json_path)
            return 2
    _write_json(_result_payload(prob, result), args.json_path)
    if args.trace_path:
        _write_trace(result, args.trace_path)
    if not result.converged:
        print(
            f"specrad: iteration cap {args.max_iter} reached with "
            f"res={result.res:.3e} > tol={args.tol:.3e}",
            file=sys.stderr,
        )
        return 2
    return 0


def _cmd_check(args) -> int:
    prob = _load_problem(args)
    report = classify_regime(prob)
    payload = {"schema_version": SCHEMA_VERSION, **report.to_dict()}
    print(json.dumps(payload, indent=2))
    if args.json_path:
        _write_json(payload, args.json_path)
    return 0


def _cmd_bench(args) -> int:
    results = run_benchmark(tol=args.tol, max_iter=args.max_iter)
    print(format_table(results))
    if args.json_path:
        _write_json({"schema_version": SCHEMA_VERSION, "cases": results}, args.json_path)
    return 0


def _cmd_random(args) -> int:
    dims = [int(t) for t in args.dims.split(",")]
    tensor = random_tensor(dims, args.density, args.seed)
    text = write_tensor(tensor)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    handler = {
        "solve": _cmd_solve,
        "check": _cmd_check,
        "bench": _cmd_bench,
        "random": _cmd_random,
    }[args.command]
    try:
        return handler(args)
    except OSError as e:  # a write can fail with no file named, e.g. on a full disk
        where = f"cannot open {e.filename!r}" if e.filename else "I/O error"
        print(f"specrad: {where}: {e.strerror}", file=sys.stderr)
        return 1
    except (SpecradError, ValueError) as e:
        print(f"specrad: {e.__class__.__name__}: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
