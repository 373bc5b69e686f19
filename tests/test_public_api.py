"""The package namespace is the union of the layer modules' ``__all__``, and
the command line's solver defaults are the ``SolverOptions`` defaults."""
import inspect

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
    assert (s.tol, s.max_iter, s.armijo_c, s.rho) == (
        opts.tol,
        opts.max_iter,
        opts.armijo_c,
        opts.backtrack_rho,
    )
    b = parser.parse_args(["bench"])
    assert (b.tol, b.max_iter) == (opts.tol, opts.max_iter)
    params = inspect.signature(sr.run_benchmark).parameters
    assert (params["tol"].default, params["max_iter"].default) == (opts.tol, opts.max_iter)
