"""Truncated heat-kernel derivative series: evaluation, rigorous error
bounds, divergence certificates, the eigenfunction expansion in similarity
variables, and the distributional remainder decomposition."""

from .bounds import (
    divergence_lower_bound,
    envelope_bound_G,
    error_bound_F,
    error_bound_F_sweep,
    gaussian_origin_blocks,
)
from .decomposition import (
    decomposition_residual,
    gaussian_test_function,
    poly_gaussian_test_function,
    remainder,
    remainder_l1_norm,
)
from .eigen import (
    EigenCoeffs,
    SimilarityPoint,
    eigen_coeffs,
    eval_expansion,
    eval_expansion_sweep,
    validity_integral,
)
from .errors import (
    DomainError,
    HeatSeriesError,
    IntegrabilityError,
    UnsupportedVariantError,
)
from .kernel_approx import (
    ApproxConfig,
    ApproxResult,
    SeriesGridEvaluator,
    eval_uk,
    eval_uk_radial_origin,
    eval_uk_sweep,
    heat_kernel,
    kernel_derivative,
)
from .moments import (
    Gaussian,
    Generic1D,
    MomentTable,
    MultiIndex,
    Radial,
    abs_moment,
    build_moment_table,
    compositions,
    moment,
    moments_at_time,
)
from .reference import (
    ErrorCurve,
    ErrorPoint,
    GridSpec,
    convolve_oracle,
    default_grid,
    error_curve,
    exact_gaussian_solution,
)
from .signedlog import ZERO, SignedLog, aligned_sum
from .specfun import (
    bonan_clark_log,
    hermite,
    hermite_weighted,
    hermite_weighted_sequence,
    log_factorial,
    log_gamma,
)

__version__ = "0.1.0"

__all__ = [
    "ApproxConfig",
    "ApproxResult",
    "DomainError",
    "EigenCoeffs",
    "ErrorCurve",
    "ErrorPoint",
    "Gaussian",
    "Generic1D",
    "GridSpec",
    "HeatSeriesError",
    "IntegrabilityError",
    "MomentTable",
    "MultiIndex",
    "Radial",
    "SeriesGridEvaluator",
    "SignedLog",
    "SimilarityPoint",
    "UnsupportedVariantError",
    "ZERO",
    "abs_moment",
    "aligned_sum",
    "bonan_clark_log",
    "build_moment_table",
    "compositions",
    "convolve_oracle",
    "decomposition_residual",
    "default_grid",
    "divergence_lower_bound",
    "eigen_coeffs",
    "envelope_bound_G",
    "error_bound_F",
    "error_bound_F_sweep",
    "error_curve",
    "eval_expansion",
    "eval_expansion_sweep",
    "eval_uk",
    "eval_uk_radial_origin",
    "eval_uk_sweep",
    "exact_gaussian_solution",
    "gaussian_origin_blocks",
    "gaussian_test_function",
    "heat_kernel",
    "hermite",
    "hermite_weighted",
    "hermite_weighted_sequence",
    "kernel_derivative",
    "log_factorial",
    "log_gamma",
    "moment",
    "moments_at_time",
    "poly_gaussian_test_function",
    "remainder",
    "remainder_l1_norm",
    "validity_integral",
]
