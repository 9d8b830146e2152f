"""Regularized least-squares approximation in redundant frames on [0, 1]."""

from .orthopoly import (
    QuadratureRule,
    chebyshev_nodes,
    equispaced_nodes,
    gauss_legendre_rule,
    hp_log_quadrature,
    legendre_shifted,
    legendre_table,
)
from .frames import (
    FrameSpec,
    element_matrix,
    legendre_onb,
    onb_plus_k,
    synthesize,
    target_function,
)
from .sampling import (
    DataVector,
    SamplingScheme,
    SchemeFamily,
    chebyshev_point_scheme,
    chebyshev_points,
    equispaced_point_scheme,
    equispaced_points,
    inner_product_scheme,
    inner_products,
    legendre_point_scheme,
    legendre_points,
    richness_estimate,
    sample,
)
from .gram import (
    GramFactor,
    GramSystem,
    build_gram_factor,
    build_system,
)
from .solver import (
    BoundCheck,
    ErrorReport,
    RegularizedSolution,
    approximate,
    error_report,
    truncated_svd_solve,
    verify_coefficient_bound,
    verify_error_bound,
)
from .diagnostics import (
    DiagnosticsReport,
    compute_kappa,
    compute_lambda,
    constants_sweep,
    diagnose,
    stable_sampling_rate,
)

__version__ = "0.1.0"
