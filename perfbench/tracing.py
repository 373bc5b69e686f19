"""Spans around specrad's public functions, installed from outside the package.

``Tracer.install`` wraps every public function of the traced modules and
rebinds the wrapper at *every* ``specrad.*`` module attribute that holds the
original, so call sites that did ``from .x import f`` (``solvers.lu_solve``,
``cli.classify_regime``, ...) are traced too.  ``uninstall`` puts the
originals back.  Spans (name, start, end, parent, op id) are kept in
compact arrays and written out once, when the run ends.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import os
import sys
import time
from array import array
from collections import defaultdict

import numpy as np

PACKAGE = "specrad"
LAYERS = ("tensor_io", "tensor_core", "spectral_maps", "structure", "linalg", "solvers", "cli")

#: Op id of spans recorded during the program's set-up calls, and of spans
#: recorded outside set-up and ops (dropped from every figure).
SETUP, IDLE = -1, -2

SOLVERS = ("solvers.newton_noda", "solvers.power_iteration")


def _parse_bytes(args, result):
    src = args[0]
    if isinstance(src, str):
        return len(src.encode())
    return os.fstat(src.fileno()).st_size


def _jacobian_bytes(args, result):
    n = args[0].partition.total_dim
    return 8 * n * n


def _lu_flops(args, result):
    n = np.shape(args[0])[0]
    # factorization, then two pairs of triangular solves and one residual
    return 2 * n**3 // 3 + 6 * n * n


def _solve_iterations(args, result):
    return result.iterations


def _solve_backtracks(args, result):
    return sum(rec.backtracks for rec in result.trace)


def _line_search_trials(args, result):
    return result[2] + 1


#: Quantities read from a call's arguments or result: (function, key, fn).
MEASURES = (
    ("tensor_io.parse_tensor", "parse_bytes", _parse_bytes),
    ("tensor_core.gradient_map_jacobian", "jacobian_bytes", _jacobian_bytes),
    ("linalg.lu_solve", "lu_flops", _lu_flops),
    ("solvers.newton_noda", "iterations", _solve_iterations),
    ("solvers.power_iteration", "iterations", _solve_iterations),
    ("solvers.newton_noda", "backtracks", _solve_backtracks),
    ("solvers.line_search", "line_search_trials", _line_search_trials),
)


def public_functions(module) -> dict:
    """Public functions defined in ``module`` (``__all__`` when present)."""
    names = getattr(module, "__all__", None)
    if names is None:
        names = [n for n in vars(module) if not n.startswith("_")]
    out = {}
    for n in names:
        f = getattr(module, n, None)
        if inspect.isfunction(f) and f.__module__ == module.__name__:
            out[n] = f
    return out


class Tracer:
    """Records one span per call of a wrapped function while installed."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.name_ids: dict[str, int] = {}
        self.kind = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.op_id = SETUP
        self.measured: dict = defaultdict(float)  # (key, op id) -> total
        self.absent: list[str] = []
        self._bindings: list[tuple] = []  # (module, attribute, original)

    def _name_id(self, name: str) -> int:
        if name not in self.name_ids:
            self.name_ids[name] = len(self.names)
            self.names.append(name)
        return self.name_ids[name]

    def _wrap(self, name: str, fn):
        nid = self._name_id(name)
        measures = [(key, m) for fname, key, m in MEASURES if fname == name]
        kind, parent, op, start, end, stack = (
            self.kind, self.parent, self.op, self.start, self.end, self.stack)
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = len(kind)
            kind.append(nid)
            parent.append(stack[-1])
            op.append(self.op_id)
            end.append(0.0)
            stack.append(sid)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[sid] = clock()
                stack.pop()
            for key, m in measures:
                self.measured[key, self.op_id] += m(args, result)
            return result

        return wrapper

    def install(self) -> None:
        if self._bindings:
            raise RuntimeError("tracer already installed")
        self.absent = []
        wrappers, names = {}, set()  # original -> wrapper; qualified names
        for layer in LAYERS:
            try:
                module = importlib.import_module(f"{PACKAGE}.{layer}")
            except ImportError:
                self.absent.append(layer)
                continue
            for n, f in public_functions(module).items():
                names.add(f"{layer}.{n}")
                wrappers[f] = self._wrap(f"{layer}.{n}", f)
        self.absent += sorted({
            name for name, _, _ in MEASURES
            if name not in names and name.split(".")[0] not in self.absent
        })
        for modname, module in list(sys.modules.items()):
            if module is None or not (modname == PACKAGE or modname.startswith(PACKAGE + ".")):
                continue
            for attr, value in list(vars(module).items()):
                if inspect.isfunction(value) and value in wrappers:
                    setattr(module, attr, wrappers[value])
                    self._bindings.append((module, attr, value))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._bindings):
            setattr(module, attr, original)
        self._bindings = []

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    def arrays(self) -> dict:
        """Copies of the span columns as numpy arrays."""
        return {
            "kind": np.array(self.kind, dtype=np.int32),
            "parent": np.array(self.parent, dtype=np.int32),
            "op": np.array(self.op, dtype=np.int32),
            "start": np.array(self.start, dtype=np.float64),
            "end": np.array(self.end, dtype=np.float64),
        }

    def save(self, path) -> None:
        np.savez(path, names=np.array(self.names, dtype=str), **self.arrays())


def _span_times(a: dict) -> tuple[np.ndarray, np.ndarray]:
    """Duration and self time (duration minus direct children) per span."""
    dur = a["end"] - a["start"]
    child = np.zeros_like(dur)
    has_parent = a["parent"] >= 0
    np.add.at(child, a["parent"][has_parent], dur[has_parent])
    return dur, dur - child


def layer_metrics(tracer: Tracer, ops: set[int], passes: int) -> dict[str, float]:
    """Per-layer figures for one set-up plus one pass of ops.

    Spans with op id ``SETUP`` count once; spans of the ops in ``ops`` are
    divided by ``passes``.  Self time is a span's duration minus the
    durations of its direct children.
    """
    a = tracer.arrays()
    names = tracer.names
    kind, parent, op = a["kind"], a["parent"], a["op"]
    dur, self_t = _span_times(a)
    in_setup = op == SETUP
    in_ops = np.isin(op, sorted(ops))

    def per_pass(values, m):
        """Sum of ``values`` over set-up spans in ``m``, plus over op spans
        in ``m`` divided by ``passes``."""
        return float(values[m & in_setup].sum()) + float(values[m & in_ops].sum()) / passes

    ones = np.ones_like(dur)

    def ids(pred):
        return np.array([i for i, n in enumerate(names) if pred(n)], dtype=np.int32)

    def mask(*fullnames):
        return np.isin(kind, ids(lambda n: n in fullnames))

    def module_mask(layer):
        return np.isin(kind, ids(lambda n: n.split(".")[0] == layer))

    def nearest_ancestor(m):
        """Index of each span's nearest ancestor in mask ``m``, or -1."""
        out = np.full(len(m), -1, dtype=np.int32)
        cur = parent.copy()
        while np.any(cur >= 0):
            hit = (cur >= 0) & (out < 0)
            hit[hit] = m[cur[hit]]
            out[hit] = cur[hit]
            live = cur >= 0
            cur[live] = parent[cur[live]]
        return out

    def calls_in(m):
        return per_pass(ones, m)

    def calls(*fullnames):
        return calls_in(mask(*fullnames))

    def secs(*fullnames):
        return per_pass(dur, mask(*fullnames))

    def self_secs(m):
        return per_pass(self_t, m)

    def measured(key):
        setup = sum(v for (k, o), v in tracer.measured.items() if k == key and o == SETUP)
        timed = sum(v for (k, o), v in tracer.measured.items() if k == key and o in ops)
        return setup + timed / passes

    solver = mask(*SOLVERS)
    iterations = measured("iterations")
    grad_in_solver = calls_in(mask("tensor_core.gradient_map") & (nearest_ancestor(solver) >= 0))
    # CLI invocations that ran a solver, and the classify calls made under them
    main_of = nearest_ancestor(mask("cli.main"))
    solve_mains = np.unique(main_of[solver & (main_of >= 0)])
    cli_solves = calls_in(np.isin(np.arange(len(kind)), solve_mains))
    classify_in_cli = calls_in(mask("structure.classify_regime") & np.isin(main_of, solve_mains))
    return {
        "tensor_io.parse_calls": calls("tensor_io.parse_tensor"),
        "tensor_io.parse_s": secs("tensor_io.parse_tensor"),
        "tensor_io.parse_mb": measured("parse_bytes") / 1e6,
        "tensor_io.write_s": secs("tensor_io.write_tensor"),
        "tensor_io.random_tensor_s": secs("tensor_io.random_tensor"),
        "tensor_core.gradient_map_calls": calls("tensor_core.gradient_map"),
        "tensor_core.gradient_map_s": secs("tensor_core.gradient_map"),
        "tensor_core.jacobian_calls": calls("tensor_core.gradient_map_jacobian"),
        "tensor_core.jacobian_s": secs("tensor_core.gradient_map_jacobian"),
        "tensor_core.jacobian_mb_computed": measured("jacobian_bytes") / 1e6,
        "spectral_maps.ratio_map_calls": calls("spectral_maps.ratio_map"),
        "spectral_maps.eigen_system_calls": calls("spectral_maps.eigen_system"),
        "spectral_maps.newton_matrix_s": secs("spectral_maps.newton_matrix"),
        "spectral_maps.self_s": self_secs(module_mask("spectral_maps")),
        "structure.classify_calls": calls("structure.classify_regime"),
        "structure.classify_s": secs("structure.classify_regime"),
        "structure.classify_self_s": self_secs(mask("structure.classify_regime")),
        "linalg.lu_solve_calls": calls("linalg.lu_solve"),
        "linalg.lu_solve_s": secs("linalg.lu_solve"),
        "linalg.lu_gflop_computed": measured("lu_flops") / 1e9,
        "linalg.strong_components_s": secs("linalg.strong_components"),
        "linalg.dominant_eigpair_s": secs("linalg.dominant_eigpair"),
        "solvers.solves": calls(*SOLVERS),
        "solvers.iterations": iterations,
        "solvers.backtracks": measured("backtracks"),
        "solvers.line_search_trials": measured("line_search_trials"),
        "solvers.newton_step_s": secs("solvers.newton_step"),
        "solvers.line_search_s": secs("solvers.line_search"),
        "solvers.self_s": self_secs(module_mask("solvers")),
        "solvers.gradient_evals_per_iter": grad_in_solver / iterations if iterations else 0.0,
        "cli.invocations": calls("cli.main"),
        "cli.self_s": self_secs(module_mask("cli")),
        "cli.classify_per_solve": classify_in_cli / cli_solves if cli_solves else 0.0,
    }


def _self_times(tracer: Tracer, ops: set[int]) -> np.ndarray:
    """Self seconds per wrapped function over the spans of ``ops``."""
    a = tracer.arrays()
    _, self_t = _span_times(a)
    keep = np.isin(a["op"], sorted(ops))
    return np.bincount(a["kind"][keep], weights=self_t[keep], minlength=len(tracer.names))


def function_shares(tracer: Tracer, ops: set[int], total_s: float) -> dict[str, float]:
    """Share of ``total_s`` (the ops' wall time) spent in each function's
    own code, largest first; ``(outside spans)`` is the rest."""
    self_t = _self_times(tracer, ops)
    shares = {tracer.names[i]: float(self_t[i] / total_s) for i in np.argsort(-self_t) if self_t[i] > 0.0}
    shares["(outside spans)"] = 1.0 - float(self_t.sum()) / total_s
    return shares


def module_shares(tracer: Tracer, ops: set[int], total_s: float) -> dict[str, float]:
    """Share of ``total_s`` spent in each layer's own code."""
    self_t = _self_times(tracer, ops)
    out = dict.fromkeys((f"{layer}.self_share" for layer in LAYERS), 0.0)
    for i, name in enumerate(tracer.names):
        out[name.split(".")[0] + ".self_share"] += float(self_t[i] / total_s)
    return out


#: Every per-layer metric of a traced run, with its unit.  Figures are for
#: one set-up plus one pass of ops; shares are of the traced ops' wall time.
PER_LAYER = {
    "tensor_io.parse_calls": "count",
    "tensor_io.parse_s": "s",
    "tensor_io.parse_mb": "MB",
    "tensor_io.write_s": "s",
    "tensor_io.random_tensor_s": "s",
    "tensor_core.gradient_map_calls": "count",
    "tensor_core.gradient_map_s": "s",
    "tensor_core.jacobian_calls": "count",
    "tensor_core.jacobian_s": "s",
    "tensor_core.jacobian_mb_computed": "MB",
    "spectral_maps.ratio_map_calls": "count",
    "spectral_maps.eigen_system_calls": "count",
    "spectral_maps.newton_matrix_s": "s",
    "spectral_maps.self_s": "s",
    "structure.classify_calls": "count",
    "structure.classify_s": "s",
    "structure.classify_self_s": "s",
    "linalg.lu_solve_calls": "count",
    "linalg.lu_solve_s": "s",
    "linalg.lu_gflop_computed": "GFLOP",
    "linalg.strong_components_s": "s",
    "linalg.dominant_eigpair_s": "s",
    "solvers.solves": "count",
    "solvers.iterations": "count",
    "solvers.backtracks": "count",
    "solvers.line_search_trials": "count",
    "solvers.newton_step_s": "s",
    "solvers.line_search_s": "s",
    "solvers.self_s": "s",
    "solvers.gradient_evals_per_iter": "ratio",
    "cli.invocations": "count",
    "cli.self_s": "s",
    "cli.classify_per_solve": "ratio",
    **{f"{layer}.self_share": "ratio" for layer in LAYERS},
    "trace.pass_s": "s",
    "trace.overhead_s": "s",
    "trace.overhead_frac": "ratio",
}
