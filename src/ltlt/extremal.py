"""Extremal matrices with known growth, parameterized by a slack delta.

For n = 4 and 5 the growth approaches 2^(n-1) as delta -> 0+, witnessing
attainability of the bound; the n = 6 family peaks at growth 24 < 32 over
its whole validity window, consistent with the bound not being tight there.
Every generator returns the matrix together with its reference factors
(identity permutation), whose entries are closed forms in delta.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .aasen import AasenFactors, factorize
from .growth import GrowthCertificate, growth_certificate, growth_factor
from .matcore import (
    PermutationVector,
    SymmetricMatrix,
    SymmetricTridiagonal,
    UnitLowerTriangular,
    residual,
)

SUPPORTED_N = (4, 5, 6)

# (lower, lower_inclusive, upper, window_text, binding_entry_text)
_WINDOWS = {
    4: (0.0, False, 2.0, "0 < delta <= 2", "entry a[2,4] = delta - 1 must stay in [-1, 1]"),
    5: (0.0, False, 1.0, "0 < delta <= 1", "entry a[3,5] = 2*delta - 1 must stay in [-1, 1]"),
    6: (0.4, True, 0.8, "2/5 <= delta <= 4/5", "entry a[4,4] = 5*delta - 3 must stay in [-1, 1]"),
}


class DeltaWindowError(ValueError):
    """delta lies outside the validity window of the requested example."""


@dataclass(frozen=True)
class ExtremalExample:
    n: int
    delta: float
    A: SymmetricMatrix
    refL: UnitLowerTriangular
    refT: SymmetricTridiagonal
    refP: PermutationVector
    expected_growth: float


@dataclass(frozen=True)
class ExampleReport:
    """Reference factors checked against a fresh factorization."""

    example: ExtremalExample
    reference_residual: float
    reference_growth: float
    reference_certificate: GrowthCertificate
    factors: AasenFactors
    recomputed_residual: float
    recomputed_growth: float
    recomputed_certificate: GrowthCertificate


def _check_window(n: int, delta: float):
    if n not in _WINDOWS:
        raise ValueError(f"no extremal example for n={n}; supported: {SUPPORTED_N}")
    lo, lo_incl, up, window, binding = _WINDOWS[n]
    ok_low = delta >= lo if lo_incl else delta > lo
    if not (ok_low and delta <= up):
        detail = binding
        if not ok_low and not lo_incl:
            detail = "delta = 0 degenerates the factors; " + binding
        raise DeltaWindowError(
            f"delta={delta!r} outside the n={n} window {window} ({detail})"
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

    return ExtremalExample(
        n=n,
        delta=d,
        A=SymmetricMatrix.from_full(a),
        refL=lower,
        refT=SymmetricTridiagonal(np.array(diag, float), np.array(off, float)),
        refP=PermutationVector.identity(n),
        expected_growth=float(expected),
    )


def verify_example(ex: ExtremalExample) -> ExampleReport:
    """Check the reference factors and compare with a fresh factorization."""
    ref_factors = AasenFactors(p=ex.refP, L=ex.refL, T=ex.refT)
    ref_res = residual(ex.A, ex.refP, ex.refL, ex.refT)
    ref_growth = growth_factor(ex.A, ref_factors)
    ref_cert = growth_certificate(ex.A, ref_factors)

    f = factorize(ex.A)
    rec_res = residual(ex.A, f.p, f.L, f.T)
    rec_growth = growth_factor(ex.A, f)
    rec_cert = growth_certificate(ex.A, f)

    return ExampleReport(
        example=ex,
        reference_residual=ref_res,
        reference_growth=float(ref_growth),
        reference_certificate=ref_cert,
        factors=f,
        recomputed_residual=rec_res,
        recomputed_growth=float(rec_growth),
        recomputed_certificate=rec_cert,
    )
