"""Aasen LTL^T factorization with element-growth certificates.

Factorizes symmetric indefinite matrices as P A P^T = L T L^T with bounded
multipliers, certifies the entrywise growth bounds that cap the growth
factor at 2^(n-1), solves the slack linear program showing that bound is
not tight from dimension 6 on, and ships the extremal example family plus
a direct-search growth maximizer.
"""
from .aasen import (
    AasenFactors,
    SingularMatrixError,
    factorize,
    solve,
    tridiag_solve,
)
from .extremal import (
    DeltaWindowError,
    ExampleReport,
    ExtremalExample,
    extremal_matrix,
    verify_example,
)
from .growth import (
    BoundTable,
    CheckRow,
    GrowthCertificate,
    UndefinedGrowthError,
    bound_table,
    growth_certificate,
    growth_factor,
    reference_growth_targets,
)
from .lpcert import (
    ConstraintRow,
    DeltaProgram,
    LPSolution,
    build_program,
    min_delta,
    solve_lp,
    tnn_upper_bound,
)
from .matcore import (
    PermutationVector,
    SymmetricMatrix,
    SymmetricTridiagonal,
    UnitLowerTriangular,
    assemble,
    max_abs,
    permute_sym,
    residual,
)
from .search import SearchConfig, SearchOutcome, evaluate_candidate, maximize_growth

__version__ = "0.1.0"

__all__ = [
    "AasenFactors",
    "BoundTable",
    "CheckRow",
    "ConstraintRow",
    "DeltaProgram",
    "DeltaWindowError",
    "ExampleReport",
    "ExtremalExample",
    "GrowthCertificate",
    "LPSolution",
    "PermutationVector",
    "SearchConfig",
    "SearchOutcome",
    "SingularMatrixError",
    "SymmetricMatrix",
    "SymmetricTridiagonal",
    "UndefinedGrowthError",
    "UnitLowerTriangular",
    "assemble",
    "bound_table",
    "build_program",
    "evaluate_candidate",
    "extremal_matrix",
    "factorize",
    "growth_certificate",
    "growth_factor",
    "max_abs",
    "maximize_growth",
    "min_delta",
    "permute_sym",
    "reference_growth_targets",
    "residual",
    "solve",
    "solve_lp",
    "tnn_upper_bound",
    "tridiag_solve",
    "verify_example",
]
