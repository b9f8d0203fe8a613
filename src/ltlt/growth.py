"""Growth factor of an LTL^T factorization and its entrywise certificate.

The certificate checks every entry bound that pins the growth factor below
2^(n-1): bounds on the leading entries of T, on the entries of the working
matrix H = T L^T, and on the trailing rows of T.  All bounds are taken
relative to the largest entry magnitude of the input matrix.

The bounds are evaluated as two arrays, left-hand sides and bounds, in a
fixed row order.  A certificate stores the left-hand sides; the bounds
depend on n alone and are built when first asked for
(``GrowthCertificate.bound``).  ``row(k)`` returns row k labelled, its label
formed from n and k alone, and ``worst()`` returns the row of smallest
margin.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from math import isqrt
from typing import NamedTuple

import numpy as np

from . import MAX_N, DomainError
from .aasen import AasenFactors
from .matcore import SymmetricMatrix, _frozen, _value_eq, max_abs, working_matrix

# A check row may undershoot its bound by this much before failing; absorbs
# roundoff accumulation across dimensions up to ~50.
MARGIN_TOL = 1e-10


class UndefinedGrowthError(DomainError):
    """Raised when asking for the growth factor of the zero matrix."""


class CheckRow(NamedTuple):
    label: str
    lhs: float
    bound: float
    margin: float


@dataclass(frozen=True)
class GrowthCertificate:
    """Instantiated entrywise bounds for one factorization.

    Row k checks ``lhs[k] <= bound[k]``, in the row order documented on
    growth_certificate(); ``row(k)`` gives it with its label and margin.
    Only ``lhs`` is stored: ``bound`` depends on n alone and is built on
    first access.  Both arrays are read-only; an ``lhs`` that is not
    already a read-only array is copied first.
    """

    rho: float
    lhs: np.ndarray
    all_pass: bool
    n: int
    __eq__ = _value_eq

    def __post_init__(self):
        lhs = self.lhs
        if not isinstance(lhs, np.ndarray) or lhs.flags.writeable:
            object.__setattr__(self, "lhs", _frozen(lhs))

    @cached_property
    def bound(self) -> np.ndarray:
        """Row bounds, read-only: 1 or a power of two, in the row order of ``lhs``."""
        bound = _bounds(self.n)
        bound.setflags(write=False)
        return bound

    def row(self, k: int) -> CheckRow:
        """Row k as (label, lhs, bound, margin); labels use 1-based indices, e.g. ``"h[2,5]"``."""
        if not 0 <= k < len(self.lhs):
            raise IndexError(f"certificate row {k} out of range for {len(self.lhs)} rows")
        lhs, bound = float(self.lhs[k]), float(self.bound[k])
        return CheckRow(_label(self.n, k), lhs, bound, bound - lhs)

    def worst(self) -> CheckRow:
        """The row with the smallest margin; the first one on ties."""
        return self.row(int(np.argmin(self.bound - self.lhs)))


def _check_dims(a: SymmetricMatrix, f: AasenFactors):
    if f.n != a.n:
        raise ValueError(f"dimension mismatch: A is {a.n}, its factors are {f.n}")


def growth_factor(a: SymmetricMatrix, f: AasenFactors) -> float:
    """max |t_ij| / max |a_ij| over the final tridiagonal factor."""
    _check_dims(a, f)
    m = max_abs(a)
    if m == 0.0:
        raise UndefinedGrowthError("growth factor is undefined for the zero matrix")
    return f.T.max_abs() / m


def growth_certificate(a: SymmetricMatrix, f: AasenFactors) -> GrowthCertificate:
    """Instantiate every entrywise bound for the given factors.

    Emitted rows (entries of T and of H = T L^T, normalized by max |a_ij|,
    indices 1-based in the labels):

      |t11| <= 1,  |t21| <= 1,  |t22| <= 1
      |h[1,i]| <= 1                   for 3 <= i <= n   (equals |l_i2 t21|)
      |h[j,i]| <= 2^(j-2)             for 2 <= j < i <= n
      |h[n,n]| <= 2^(n-2)             (equals |l_(n,n-1) t_(n-1,n) + t_nn|)
      |t[i,i-1]| <= 2^(i-2),  |t[i,i]| <= 2^(i-1)   for 3 <= i <= n

    For n < 3 only the first group applies.  H comes from
    matcore.working_matrix(), which forms it from T's band and L's strict
    part in O(n^2) elementwise work with no BLAS call, so the row values do
    not depend on the BLAS kernel.  Each lhs is |x| / max |a_ij| of its raw
    entry x.  Raises OverflowError for n > MAX_N, where the bounds are not
    representable.
    """
    _check_dims(a, f)
    m = max_abs(a)
    if m == 0.0:
        raise UndefinedGrowthError("certificate is undefined for the zero matrix")
    n = f.n
    if n > MAX_N:
        raise OverflowError(f"certificate needs n <= {MAX_N} (2^(n-1) overflows a double), got {n}")
    d, e = f.T.diag, f.T.offdiag
    lead = [d[0], e[0], d[1]] if n >= 2 else [d[0]]
    if n < 3:
        lhs = np.array(lead)
    else:
        # h[1,i] for i >= 3, then h[j,i] for 2 <= j < i, row-major: the strict
        # upper triangle of H without h[1,2], which is t[2,1].  lhs is made
        # before H, and H's rows are copied into it one at a time, through no
        # view that outlives the copy, so the certificate's array does not
        # land in H's space and H is freed at the del
        k = n * (n - 1) // 2 - 1
        lhs = np.empty(3 + k + 1 + 2 * (n - 2))
        lhs[:3] = lead
        h = working_matrix(f.L, f.T)
        pos = 3
        for j in range(n - 1):
            s = j + 1 + (j == 0)
            lhs[pos : pos + n - s] = h[j, s:]
            pos += n - s
        lhs[pos] = h[n - 1, n - 1]
        del h
        lhs[pos + 1 :] = np.column_stack((e[1:], d[2:])).ravel()
    lhs /= m
    np.abs(lhs, out=lhs)
    lhs.setflags(write=False)  # fresh, so the certificate keeps it without a copy
    margin = _bounds(n)
    margin -= lhs
    all_pass = bool(np.all(margin >= -MARGIN_TOL))
    rho = f.T.max_abs() / m  # growth_factor(a, f) without a second scan of A
    return GrowthCertificate(rho=rho, lhs=lhs, all_pass=all_pass, n=n)


def _label(n: int, k: int) -> str:
    """The label of row k, in growth_certificate()'s row order, by arithmetic."""
    if k < 3:
        return ("t[1,1]", "t[2,1]", "t[2,2]")[k]
    hnn = n * (n - 1) // 2 + 2  # the row of h[n,n]
    if k < hnn:
        # H's strict upper triangle without h[1,2], row-major.  Counted back
        # from h[n-1,n] (q = 0), H's rows n-1, n-2, ... hold 1, 2, ... entries
        # of it, so q lies in row n-1-r, r(r+1)/2 <= q < (r+1)(r+2)/2
        q = hnn - 1 - k
        r = (isqrt(8 * q + 1) - 1) // 2
        return f"h[{n - 1 - r},{n - q + r * (r + 1) // 2}]"
    if k == hnn:
        return f"h[{n},{n}]"
    i, diag = divmod(k - hnn + 5, 2)  # t[i,i-1], t[i,i] for i = 3, 4, ...
    return f"t[{i},{i - 1 + diag}]"


def _bounds(n: int) -> np.ndarray:
    """The bound of every certificate row, in growth_certificate()'s row order."""
    if n < 3:
        return np.ones(2 * n - 1)
    pow2 = np.array([2.0 ** k for k in range(n)])
    # 1 for t11, t21, t22 and the n - 2 rows h[1,i]; 2^(j-2) for the n - j
    # rows h[j,i] of 2 <= j < n; 2^(n-2) for h[n,n]; then 2^(i-2) and 2^(i-1)
    # for t[i,i-1] and t[i,i], 3 <= i <= n.  One np.repeat, no joined pieces
    pairs = np.column_stack((pow2[1 : n - 1], pow2[2:])).ravel()
    values = np.concatenate(([1.0], pow2[: n - 1], pairs))
    counts = np.concatenate(([n + 1], np.arange(n - 2, 0, -1), [1], np.ones(2 * n - 4, np.intp)))
    return np.repeat(values, counts)
