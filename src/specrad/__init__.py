"""Positive eigenpairs and spectral radii of nonnegative tensors under
shape partitions and blockwise norm constraints.

The core entry points are :func:`make_problem` to bundle a tensor with a
partition and norm exponents, :func:`classify_regime` to check the
structural assumptions, and :func:`solve` (:func:`newton_noda` or
:func:`power_iteration`) to compute the positive eigenpair with a certified
error bracket.  Each module's ``__all__`` is its public API; the package
re-exports those of the layer modules and three names of :mod:`.bench`.
"""

from . import errors, linalg, solvers, spectral_maps, structure, tensor_core, tensor_io
from .bench import BENCH_CASES, reference_tensor, run_benchmark
from .linalg import *
from .solvers import *
from .spectral_maps import *
from .structure import *
from .tensor_core import *
from .tensor_io import *

__version__ = "0.1.0"

__all__ = [
    "errors",
    "__version__",
    *tensor_core.__all__,
    *spectral_maps.__all__,
    *structure.__all__,
    *linalg.__all__,
    *solvers.__all__,
    *tensor_io.__all__,
    "reference_tensor",
    "BENCH_CASES",
    "run_benchmark",
]
