"""The package namespace is the union of the layer modules' ``__all__``, the
command line's solver defaults are the ``SolverOptions`` defaults, and a
solve needs numpy only."""
import inspect
import os
import subprocess
import sys

import specrad as sr
from specrad import bench, linalg, solvers, spectral_maps, structure, tensor_core, tensor_io
from specrad.cli import _build_parser

LAYERS = (tensor_core, spectral_maps, structure, linalg, solvers, tensor_io)
FROM_BENCH = ("reference_tensor", "BENCH_CASES", "run_benchmark")


def test_no_duplicate_names():
    assert len(sr.__all__) == len(set(sr.__all__))


def test_every_name_is_its_home_module_object():
    homes = {"errors": sr.errors, "__version__": sr.__version__}
    for module in LAYERS:
        homes.update((name, getattr(module, name)) for name in module.__all__)
    homes.update((name, getattr(bench, name)) for name in FROM_BENCH)
    # every layer module's __all__ is exported, and of bench only FROM_BENCH
    assert sorted(sr.__all__) == sorted(homes)
    for name in sr.__all__:
        assert getattr(sr, name) is homes[name], name


def test_cli_and_bench_defaults_are_the_solver_options():
    opts = sr.SolverOptions()
    parser = _build_parser()
    s = parser.parse_args(["solve", "--tensor", "t", "--partition", "1", "--p", "3"])
    assert (s.tol, s.max_iter) == (opts.tol, opts.max_iter)
    b = parser.parse_args(["bench"])
    assert (b.tol, b.max_iter) == (opts.tol, opts.max_iter)
    params = inspect.signature(sr.run_benchmark).parameters
    assert (params["tol"].default, params["max_iter"].default) == (opts.tol, opts.max_iter)


def test_classify_and_solve_never_import_scipy():
    # importing scipy.sparse.csgraph adds about 33 MB of resident memory to
    # a process, so the structure check stays numpy-only (README)
    code = """
import sys
import numpy as np
import specrad as sr
n = 110  # N = 330: the GMRES Newton step
t = np.arange(n)
rng = np.random.default_rng(0)
idx = np.concatenate([rng.integers(0, n, (30 * n, 3)), np.stack([t, t, t], 1),
                      np.stack([t, (t + 1) % n, (t + 1) % n], 1)])
for tensor, p in ((sr.reference_tensor(), "3"), (sr.CooTensor((n,) * 3, idx, np.ones(len(idx))), "4")):
    prob = sr.make_problem(tensor, [[0], [1], [2]], [p] * 3)
    sr.classify_regime(prob)
    sr.solve(prob)
    sr.solve(prob, method="power")
print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
"""
    src = os.path.dirname(os.path.dirname(os.path.abspath(sr.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "[]"
