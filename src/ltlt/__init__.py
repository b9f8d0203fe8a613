"""Aasen LTL^T factorization with element-growth certificates.

Factorizes symmetric indefinite matrices as P A P^T = L T L^T with bounded
multipliers, certifies the entrywise growth bounds that cap the growth
factor at 2^(n-1), gives the exactly checked optimum of a slack linear
program for the trailing entry t_nn, and ships the extremal example family
plus a direct-search growth maximizer.

The exported names load on first use (PEP 562): ``import ltlt`` imports no
submodule, and numpy loads only with the first name from a module that
computes with it.  ``lpcert`` is pure Python, so ``ltlt lp`` never loads it.

The package-wide error class and dimension limit live here, so the modules
and the CLI share them without importing one another.
"""
from importlib import import_module

__version__ = "0.1.0"

# Largest dimension: the bounds 2^(n-1) overflow a double from n = 1025 on.
MAX_N = 1024


class DomainError(ValueError):
    """Structurally valid request outside an operation's domain."""


# The exported names, by the submodule that defines them.
_EXPORTS = {
    "aasen": ("AasenFactors", "SingularMatrixError", "factorize", "solve", "tridiag_solve"),
    "extremal": (
        "DeltaWindowError", "ExampleReport", "ExtremalExample", "extremal_matrix", "verify_example",
    ),
    "growth": (
        "CheckRow", "GrowthCertificate", "UndefinedGrowthError", "growth_certificate", "growth_factor",
    ),
    "lpcert": (
        "ConstraintRow", "DeltaProgram", "LPSolution", "build_program", "min_delta", "solve_lp",
    ),
    "matcore": (
        "PermutationVector", "SymmetricMatrix", "SymmetricTridiagonal", "UnitLowerTriangular",
        "assemble", "max_abs", "permute_sym", "residual",
    ),
    "search": ("SearchConfig", "SearchOutcome", "evaluate_candidate", "maximize_growth"),
}
_SOURCE = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_SOURCE)


def __getattr__(name):
    # not cached in the package namespace: ltlt.X is always the submodule's current X
    try:
        module = _SOURCE[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    return getattr(import_module(f".{module}", __name__), name)


def __dir__():
    return sorted({*globals(), *_SOURCE})
