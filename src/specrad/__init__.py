"""Positive eigenpairs and spectral radii of nonnegative tensors under
shape partitions and blockwise norm constraints.

The core entry points are :func:`make_problem` to bundle a tensor with a
partition and norm exponents, :func:`classify_regime` to check the
structural assumptions, and :func:`newton_noda` / :func:`power_iteration`
to compute the positive eigenpair with a certified error bracket.
"""

from . import errors
from .bench import BENCH_CASES, reference_tensor, run_benchmark
from .linalg import gmres, lu_solve
from .solvers import (
    IterRecord,
    SolveResult,
    SolverOptions,
    certified_residual,
    line_search,
    newton_noda,
    newton_step,
    power_iteration,
    solve,
)
from .spectral_maps import (
    CwReport,
    HomogeneityData,
    SpectralProblem,
    cw_bounds,
    eigen_residual,
    eigen_system,
    homogeneity_data,
    log_norm_product,
    log_norm_product_grad,
    log_ratio_jacobian,
    log_ratio_map,
    make_problem,
    newton_matrix,
    norm_product,
    norm_product_grad,
    normalize_blocks,
    power_map,
    ratio_jacobian,
    ratio_map,
    ratio_max,
    ratio_min,
    residual_jacobian,
    retract,
)
from .structure import (
    AssumptionReport,
    Regime,
    classify_regime,
    is_strictly_nonneg,
    is_weakly_irreducible,
    structure_matrix,
)
from .tensor_core import (
    BlockVector,
    CooTensor,
    ShapePartition,
    grad_component,
    gradient_map,
    gradient_map_jacobian,
    lift,
    multilinear_form,
    validate_partition,
)
from .tensor_io import (
    parse_p,
    parse_partition,
    parse_tensor,
    random_tensor,
    write_tensor,
)

__version__ = "0.1.0"

__all__ = [
    "errors",
    "__version__",
    # tensor core
    "CooTensor",
    "ShapePartition",
    "BlockVector",
    "validate_partition",
    "multilinear_form",
    "grad_component",
    "lift",
    "gradient_map",
    "gradient_map_jacobian",
    # spectral maps
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
    # structure
    "Regime",
    "AssumptionReport",
    "structure_matrix",
    "is_strictly_nonneg",
    "is_weakly_irreducible",
    "classify_regime",
    # linalg
    "lu_solve",
    "gmres",
    # solvers
    "SolverOptions",
    "IterRecord",
    "SolveResult",
    "newton_step",
    "line_search",
    "newton_noda",
    "power_iteration",
    "certified_residual",
    "solve",
    # io + bench
    "parse_tensor",
    "write_tensor",
    "parse_partition",
    "parse_p",
    "random_tensor",
    "reference_tensor",
    "BENCH_CASES",
    "run_benchmark",
]
