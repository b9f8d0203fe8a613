"""Extremal matrices with known growth, parameterized by a slack delta.

For n = 4 and 5 the growth approaches 2^(n-1) as delta -> 0+, witnessing
attainability of the bound; the n = 6 family peaks at growth 24 < 32 over
its whole validity window, consistent with the bound not being tight there.
Every generator returns the matrix together with its reference factors
(identity permutation), whose entries are closed forms in delta.  A delta
that makes an off-diagonal of the reference T exactly 0 is rejected: the
working column pivoting on it vanishes, and L, T are no longer the factors
that factorize finds (delta = 0 for n = 4 and 5, delta = 1/2 for n = 6).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import DomainError
from .aasen import AasenFactors, factorize
from .growth import GrowthCertificate, growth_certificate
from .matcore import (
    PermutationVector,
    SymmetricMatrix,
    SymmetricTridiagonal,
    UnitLowerTriangular,
    residual,
)

SUPPORTED_N = (4, 5, 6)

# Largest relative difference between the growth of a fresh factorization
# and the family's closed form that still verifies an example.  Over the
# tests' window grids the largest difference is 4.2e-14; near delta = 0 for
# n = 4 and 5 it grows as about eps / delta, because the stored entries no
# longer resolve delta (2.2e-7 at delta = 1e-9 for n = 4, 0.75 at 1e-16).
GROWTH_REL_TOL = 1e-9

# (lower, upper, window_text, binding_entry_text); extremal_matrix also
# rejects the deltas that zero an off-diagonal of the reference T
_WINDOWS = {
    4: (0.0, 2.0, "0 < delta <= 2", "entry a[2,4] = delta - 1 must stay in [-1, 1]"),
    5: (0.0, 1.0, "0 < delta <= 1", "entry a[3,5] = 2*delta - 1 must stay in [-1, 1]"),
    6: (0.4, 0.8, "2/5 <= delta <= 4/5", "entry a[4,4] = 5*delta - 3 must stay in [-1, 1]"),
}


class DeltaWindowError(DomainError):
    """delta lies outside the validity window of the requested example."""


@dataclass(frozen=True)
class ExtremalExample:
    delta: float
    A: SymmetricMatrix
    ref: AasenFactors
    expected_growth: float


@dataclass(frozen=True)
class ExampleReport:
    """Reference factors checked against a fresh factorization."""

    reference_residual: float
    reference_certificate: GrowthCertificate
    recomputed_residual: float
    recomputed_certificate: GrowthCertificate


def _check_window(n: int, delta: float):
    if n not in _WINDOWS:
        raise ValueError(f"no extremal example for n={n}; supported: {SUPPORTED_N}")
    if not np.isfinite(delta):  # every window comparison with NaN is false
        raise DeltaWindowError(f"delta must be a finite number, got {delta}")
    lo, up, window, binding = _WINDOWS[n]
    if not lo <= delta <= up:
        raise DeltaWindowError(
            f"delta={delta!r} outside the n={n} window {window} ({binding})"
        )


def _strict_lower(rows) -> UnitLowerTriangular:
    n = len(rows) + 2
    m = np.zeros((n, n))
    for i, vals in enumerate(rows, start=2):
        m[i, 1 : 1 + len(vals)] = vals
    return UnitLowerTriangular(m)


def extremal_matrix(n: int, delta: float) -> ExtremalExample:
    """The n in {4, 5, 6} example at the given delta, with reference factors."""
    _check_window(n, delta)
    d = float(delta)

    if n == 4:
        a = [
            [1, 1, -1, 1],
            [1, d / 2 - 1, 1, d - 1],
            [-1, 1, 1, -1],
            [1, d - 1, -1, 1],
        ]
        lower = _strict_lower([[-1], [1, 1]])
        diag = [1, -1 + d / 2, 2 + d / 2, 8 - 2 * d]
        off = [1, d / 2, -4]
        expected = 8 - 2 * d
    elif n == 5:
        a = [
            [1, 1, 1, 1, -1],
            [1, d / 4, 1 - d / 2, d - 1, 1 - d],
            [1, 1 - d / 2, 1, 1, 2 * d - 1],
            [1, d - 1, 1, 1, -1],
            [-1, 1 - d, 2 * d - 1, -1, 1],
        ]
        lower = _strict_lower([[1], [1, -1], [-1, 1, 1]])
        diag = [1, d / 4, -1 + 5 * d / 4, 4 - d, 16 - 12 * d]
        off = [1, 1 - 3 * d / 4, d, -8 + 4 * d]
        expected = 16 - 12 * d
    else:
        a = [
            [1, 1, 1, 1, 1, -1],
            [1, d / 2 - 0.75, -0.5, d - 1, d - 1, 1 - d],
            [1, -0.5, -1, -1, 1, -1],
            [1, d - 1, -1, 5 * d - 3, 1, 2 * d - 1],
            [1, d - 1, 1, 1, 1, -1],
            [-1, 1 - d, -1, 2 * d - 1, -1, 1],
        ]
        lower = _strict_lower([[1], [1, -1], [1, -1, -1], [-1, 1, 1, 1]])
        diag = [1, -0.75 + d / 2, -0.75 + d / 2, -3 + 3 * d, 8 - 3 * d, 32 - 20 * d]
        off = [1, 0.25 - d / 2, -1, d, -16 + 8 * d]
        expected = 32 - 20 * d

    for k, t in enumerate(off):
        if t == 0:
            raise DeltaWindowError(
                f"delta={delta!r} zeroes t[{k + 2},{k + 1}], which degenerates the factors"
            )
    return ExtremalExample(
        delta=d,
        A=SymmetricMatrix.from_full(a),
        ref=AasenFactors(
            p=PermutationVector.identity(n),
            L=lower,
            T=SymmetricTridiagonal(np.array(diag, float), np.array(off, float)),
        ),
        expected_growth=float(expected),
    )


def verify_example(ex: ExtremalExample) -> ExampleReport:
    """Check the reference factors and compare with a fresh factorization."""
    f = factorize(ex.A)
    return ExampleReport(
        reference_residual=residual(ex.A, ex.ref.p, ex.ref.L, ex.ref.T),
        reference_certificate=growth_certificate(ex.A, ex.ref),
        recomputed_residual=residual(ex.A, f.p, f.L, f.T),
        recomputed_certificate=growth_certificate(ex.A, f),
    )
