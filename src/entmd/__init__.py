"""entmd: multiplicative-update solvers for nonnegative linear systems.

The package solves A x = b over the nonnegative orthant with exponential
(mirror-descent style) and polynomial multiplicative updates driven by an
adaptive Polyak-type stepsize, extends them to signed systems and to general
convex objectives with a known optimum, and ships executable certificates
for the convergence rates and the sparsity bias of the computed limits.
"""

__version__ = "0.1.0"

from .analysis import (  # noqa: E402
    BiasReport,
    InstabilityInstance,
    OrthogonalityCheck,
    RateCertificate,
    WorstCaseInstance,
    bias_report,
    bregman_projection,
    improved_bound,
    instability_construction,
    instability_escape_distance,
    l1_gap_identity_residual,
    l1_minimal_solution,
    orthogonality_residual,
    rate_certificate,
    slow_bound,
    sublinear_bound_curve,
    worst_case_construction,
)
from .bregman import (  # noqa: E402
    EXP_QUAD_BOUND,
    WBranch,
    bregman_divergence,
    bregman_inverse_1d,
    entropy,
    exp_quadratic_margin,
    lambert_w,
    max_norm_bound,
    pinsker_lower_bound,
    weighted_norm_sq,
    ymin_lower_bound,
)
from .errors import (  # noqa: E402
    BreakdownError,
    ConvergenceError,
    DimensionMismatch,
    DomainError,
    EntmdError,
    InfiniteDivergence,
)
from .experiments import (  # noqa: E402
    ExperimentConfig,
    InstanceSpec,
    SingularLaw,
    gen_instance,
    grid_search_constant,
    run_experiment1,
    run_experiment2,
)
from .linalg import (  # noqa: E402
    lambda_max_scaled_gram,
    max_col_norm_sq,
    random_orthogonal,
    seeded_rng,
    smallest_positive_eigenvalue,
)
from .solvers import (  # noqa: E402
    ConvexObjective,
    Method,
    ProblemInstance,
    SolveConfig,
    SolveResult,
    Status,
    backtracking_stepsize,
    egpm_step,
    gradient,
    hd_plus_step,
    hd_step,
    md_step,
    objective,
    polyak_stepsize,
    solve,
    solve_convex,
)
