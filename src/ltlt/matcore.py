"""Dense symmetric / triangular / tridiagonal matrix types and their products.

All types are immutable after construction (the backing arrays are frozen),
so instances can be shared freely across threads.
"""
from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np


def _frozen(a: np.ndarray) -> np.ndarray:
    out = np.array(a, dtype=float)
    out.setflags(write=False)
    return out


def _check_finite(a: np.ndarray, what: str):
    if not np.isfinite(a).all():
        raise ValueError(f"{what} entries must be finite, got {a[~np.isfinite(a)][0]}")


def _check_square_finite(a: np.ndarray):
    """The shape and value checks both SymmetricMatrix constructors make first."""
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    _check_finite(a, "matrix")


def _value_eq(self, other):
    # the generated dataclass __eq__ compares array fields with ==, which raises
    if type(other) is not type(self):
        return NotImplemented
    return all(np.array_equal(getattr(self, f.name), getattr(other, f.name)) for f in fields(self))


@dataclass(frozen=True)
class SymmetricMatrix:
    """n-by-n real symmetric matrix; storage is exactly symmetric."""

    entries: np.ndarray
    __eq__ = _value_eq

    def __post_init__(self):
        a = _frozen(self.entries)
        _check_square_finite(a)
        if a.shape[0] < 1:
            raise ValueError("matrix dimension must be >= 1")
        if not np.array_equal(a, a.T):
            raise ValueError("entries are not exactly symmetric; use from_full()")
        object.__setattr__(self, "entries", a)

    @classmethod
    def from_full(cls, a, tol: float = 0.0) -> "SymmetricMatrix":
        """Build from a full square array, mirroring the lower triangle.

        The skew part must not exceed ``tol`` in max-abs; the stored matrix is
        made exactly symmetric by copying the lower triangle upward (no
        averaging, so values survive bit-for-bit).
        """
        a = np.array(a, dtype=float)
        _check_square_finite(a)
        with np.errstate(over="ignore"):  # a skew past the double range reads inf
            skew = float(np.max(np.abs(a - a.T))) if a.size else 0.0
        if skew > tol:
            raise ValueError(f"matrix is asymmetric by {skew:.3e} (tolerance {tol:.3e})")
        sym = np.tril(a) + np.tril(a, -1).T
        return cls(sym)

    @property
    def n(self) -> int:
        return self.entries.shape[0]


@dataclass(frozen=True)
class PermutationVector:
    """A bijection p on {0, ..., n-1}, applied as row/column selection."""

    p: np.ndarray
    __eq__ = _value_eq

    def __post_init__(self):
        q = np.asarray(self.p)
        with np.errstate(invalid="ignore"):  # NaN, inf and huge floats cast to garbage
            p = q.astype(np.intp)
        p.setflags(write=False)
        # array_equal rejects every entry the cast changed, such as 1.7 -> 1
        if p.ndim != 1 or not np.array_equal(p, q) or sorted(p.tolist()) != list(range(p.shape[0])):
            raise ValueError("p is not a permutation of 0..n-1")
        object.__setattr__(self, "p", p)

    @classmethod
    def identity(cls, n: int) -> "PermutationVector":
        return cls(np.arange(n))

    @property
    def n(self) -> int:
        return self.p.shape[0]


@dataclass(frozen=True)
class UnitLowerTriangular:
    """Unit lower triangular matrix; only the strict lower triangle is stored.

    The first column is e_1 (no multipliers below the leading 1) and every
    stored multiplier satisfies |l_ij| <= 1 exactly.
    """

    strict: np.ndarray
    __eq__ = _value_eq

    def __post_init__(self):
        a = _frozen(self.strict)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError(f"expected a square array, got shape {a.shape}")
        _check_finite(a, "multiplier")  # a NaN would pass the |l| <= 1 test below
        n = a.shape[0]
        if np.any(a, where=np.arange(n) >= np.arange(n)[:, None]):
            raise ValueError("entries on or above the diagonal must be zero")
        if np.any(a[1:, :1] != 0.0):
            raise ValueError("first column must be e_1 (no multipliers in column 0)")
        if a.size and (a.max() > 1.0 or a.min() < -1.0):
            raise ValueError("multiplier exceeds 1 in magnitude")
        object.__setattr__(self, "strict", a)

    @classmethod
    def identity(cls, n: int) -> "UnitLowerTriangular":
        return cls(np.zeros((n, n)))

    @property
    def n(self) -> int:
        return self.strict.shape[0]

    def full(self) -> np.ndarray:
        """Dense matrix with the implicit unit diagonal filled in."""
        out = np.array(self.strict)
        np.fill_diagonal(out, 1.0)
        return out


@dataclass(frozen=True)
class SymmetricTridiagonal:
    """Symmetric tridiagonal matrix stored as diagonal + one off-diagonal."""

    diag: np.ndarray
    offdiag: np.ndarray
    __eq__ = _value_eq

    def __post_init__(self):
        d = _frozen(self.diag)
        e = _frozen(self.offdiag)
        if d.ndim != 1 or e.ndim != 1:
            raise ValueError(f"diag and offdiag must be 1-d, got shapes {d.shape} and {e.shape}")
        if e.shape[0] != max(d.shape[0] - 1, 0):
            raise ValueError(
                f"need diag of length n and offdiag of length n-1, "
                f"got {d.shape[0]} and {e.shape[0]}"
            )
        _check_finite(np.concatenate((d, e)), "diag and offdiag")
        object.__setattr__(self, "diag", d)
        object.__setattr__(self, "offdiag", e)

    @property
    def n(self) -> int:
        return self.diag.shape[0]

    def full(self) -> np.ndarray:
        t = np.diag(self.diag)
        if self.n > 1:
            t += np.diag(self.offdiag, 1) + np.diag(self.offdiag, -1)
        return t

    def max_abs(self) -> float:
        return float(np.abs(np.concatenate((self.diag, self.offdiag))).max())


def max_abs(a: SymmetricMatrix) -> float:
    """Largest entry magnitude; zero only for the zero matrix."""
    return float(np.max(np.abs(a.entries)))


def _check_perm(a: SymmetricMatrix, perm: PermutationVector):
    if perm.n != a.n:
        raise ValueError(f"permutation length {perm.n} != matrix dimension {a.n}")


def permute_sym(a: SymmetricMatrix, perm: PermutationVector) -> SymmetricMatrix:
    """Symmetric permutation: result[i, j] = a[p[i], p[j]]."""
    _check_perm(a, perm)
    return SymmetricMatrix(a.entries[np.ix_(perm.p, perm.p)])


def working_matrix(lower: UnitLowerTriangular, tri: SymmetricTridiagonal) -> np.ndarray:
    """Aasen's working matrix H = T L^T, upper Hessenberg, from T's band and L's strict part.

    Row i of H combines three rows of L^T, with d and e the diagonal and
    off-diagonal of T:

      h[i,k] = (d_i l[k,i] + e_(i-1) l[k,i-1]) + e_i l[k,i+1]

    in that order (0-based; a term whose e index leaves 0..n-2 is absent, and
    l[k,k] = 1).  The band products run on the strict part of L, so on the
    three central diagonals of H they add a zero where the formula has a
    unit term; that term, d_i, e_(i-1) or e_i itself, is added last, and
    every entry equals the formula's up to the sign of a zero.  O(n^2)
    elementwise work: no dense T and no BLAS call, so the bits do not depend
    on the BLAS kernel.  Entries below the subdiagonal are signed zeros.
    """
    if lower.n != tri.n:
        raise ValueError(f"dimension mismatch: L is {lower.n}, T is {tri.n}")
    n, d, e = tri.n, tri.diag, tri.offdiag
    u = lower.strict.T  # strict part of L^T: row i holds l[k,i]
    h = np.multiply(d[:, None], u, order="C")
    band = np.empty(u[1:].shape)
    h[1:] += np.multiply(e[:, None], u[:-1], out=band)
    h[:-1] += np.multiply(e[:, None], u[1:], out=band)
    flat = h.reshape(-1)
    flat[n :: n + 1] += e  # subdiagonal: e_(i-1) l[i-1,i-1]
    flat[1 :: n + 1] += e  # superdiagonal: e_i l[i+1,i+1]
    flat[:: n + 1] += d  # diagonal: d_i l[i,i]
    return h


def assemble(lower: UnitLowerTriangular, tri: SymmetricTridiagonal) -> SymmetricMatrix:
    """Full product L T L^T = L H, with H = T L^T from working_matrix().

    L H is formed as (strict part of L) H + H, one dense product, and
    symmetrized as (M + M^T)/2 to kill roundoff skew.  Where M + M^T
    overflows, the symmetrization is M/2 + M^T/2 instead.  Raises
    OverflowError when the product itself leaves the double range.
    """
    # overflow near the top of the double range is reported once, below
    with np.errstate(over="ignore", invalid="ignore"):
        h = working_matrix(lower, tri)
        m = lower.strict @ h
        m += h
        del h  # each n x n array is dropped once dead, to keep the peak at two
        sym = np.add(m, m.T)
        sym /= 2.0
        if not np.isfinite(sym).all():
            m /= 2.0
            np.add(m, m.T, out=sym)
            if not np.isfinite(sym).all():
                raise OverflowError("L T L^T overflows the double range (non-finite product entry)")
        del m
    return SymmetricMatrix(sym)


def residual(
    a: SymmetricMatrix,
    perm: PermutationVector,
    lower: UnitLowerTriangular,
    tri: SymmetricTridiagonal,
) -> float:
    """Max-abs entry of P A P^T - L T L^T, with L T L^T from assemble().

    Raises OverflowError, through assemble(), when L T L^T is not representable.
    """
    _check_perm(a, perm)
    ltl = assemble(lower, tri).entries
    diff = a.entries[np.ix_(perm.p, perm.p)]
    diff -= ltl
    return float(np.max(np.abs(diff, out=diff)))
