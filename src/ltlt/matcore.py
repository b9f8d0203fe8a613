"""Dense symmetric / triangular / tridiagonal matrix types and their products.

All types are immutable after construction (the backing arrays are frozen),
so instances can be shared freely across threads.
"""
from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np


def _real(a) -> np.ndarray:
    """a as an array, after rejecting complex entries, which a float cast truncates."""
    a = np.asarray(a)
    if np.iscomplexobj(a):
        raise ValueError(f"entries must be real, got {a.dtype}")
    return a


def _frozen(a: np.ndarray) -> np.ndarray:
    out = np.array(_real(a), dtype=float)
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
        a = np.array(_real(a), dtype=float)
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
        q = _real(self.p)
        with np.errstate(invalid="ignore"):  # NaN, inf and huge floats cast to garbage
            p = q.astype(np.intp)
        p.setflags(write=False)
        # array_equal rejects every entry the cast changed, such as 1.7 -> 1
        if p.ndim != 1 or not np.array_equal(p, q) or sorted(p.tolist()) != list(range(p.shape[0])):
            raise ValueError("p is not a permutation of 0..n-1")
        if p.shape[0] < 1:
            raise ValueError("permutation dimension must be >= 1")
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
        if a.shape[0] < 1:
            raise ValueError("matrix dimension must be >= 1")
        _check_finite(a, "multiplier")  # a NaN would pass the |l| <= 1 test below
        n = a.shape[0]
        if np.any(a, where=np.arange(n) >= np.arange(n)[:, None]):
            raise ValueError("entries on or above the diagonal must be zero")
        if np.any(a[1:, :1] != 0.0):
            raise ValueError("first column must be e_1 (no multipliers in column 0)")
        if a.max() > 1.0 or a.min() < -1.0:
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
        if d.shape[0] < 1:
            raise ValueError("matrix dimension must be >= 1")
        if e.shape[0] != d.shape[0] - 1:
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
    """Largest entry magnitude; zero only for the zero matrix.

    Read as max(max a_ij, -min a_ij), with no |A| array; abs() turns the
    -0.0 of an all-zero matrix into 0.0.
    """
    e = a.entries
    return abs(float(max(e.max(), -e.min())))


def _check_perm(a: SymmetricMatrix, perm: PermutationVector):
    if perm.n != a.n:
        raise ValueError(f"permutation length {perm.n} != matrix dimension {a.n}")


def permute_sym(a: SymmetricMatrix, perm: PermutationVector) -> SymmetricMatrix:
    """Symmetric permutation: result[i, j] = a[p[i], p[j]]."""
    _check_perm(a, perm)
    return SymmetricMatrix(a.entries[np.ix_(perm.p, perm.p)])


# Rows or columns per block of the blocked passes below.  A block's buffers
# are a small share of one n x n array at the sizes where memory matters
# (64 / 500 at n = 500), and numpy's per-call cost stays hidden.
_BLOCK = 64

# The last column block of L H spans at least this many columns.  OpenBLAS
# computes a column of a product with the same arithmetic whether the call
# covers the whole product or a block, except that a trailing block narrower
# than 196 columns changed the bits of its last n mod 8 columns under the
# SkylakeX kernel.  With this floor the blocked product was bit-equal to the
# one-shot product under the SkylakeX, Haswell and Prescott kernels for every
# n <= 300 and for sampled n up to 1200, with a single-threaded BLAS.  A
# multithreaded BLAS splits a product between its threads, so from n ~ 260
# on the bits of either product depend on the thread count.
_LAST_BLOCK_MIN = 196


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
    on the BLAS kernel.  The two band products pass through one buffer of
    _BLOCK rows.  Entries below the subdiagonal are signed zeros.
    """
    if lower.n != tri.n:
        raise ValueError(f"dimension mismatch: L is {lower.n}, T is {tri.n}")
    n, d, e = tri.n, tri.diag, tri.offdiag
    u = lower.strict.T  # strict part of L^T: row i holds l[k,i]
    h = np.multiply(d[:, None], u, order="C")
    band = np.empty((min(_BLOCK, n), n))
    for r0 in range(0, n, _BLOCK):
        r1 = min(r0 + _BLOCK, n)
        lo, hi = max(r0, 1), min(r1, n - 1)  # rows lo..r1-1 have an e_(i-1), rows r0..hi-1 an e_i
        h[lo:r1] += np.multiply(e[lo - 1 : r1 - 1, None], u[lo - 1 : r1 - 1], out=band[: r1 - lo])
        h[r0:hi] += np.multiply(e[r0:hi, None], u[r0 + 1 : hi + 1], out=band[: hi - r0])
    flat = h.reshape(-1)
    flat[n :: n + 1] += e  # subdiagonal: e_(i-1) l[i-1,i-1]
    flat[1 :: n + 1] += e  # superdiagonal: e_i l[i+1,i+1]
    flat[:: n + 1] += d  # diagonal: d_i l[i,i]
    return h


def _product(lower: UnitLowerTriangular, tri: SymmetricTridiagonal) -> np.ndarray:
    """M = L H, with H = T L^T from working_matrix(); L T L^T is M's lower triangle.

    M is (strict part of L) H + H, written over H one column block at a
    time, since column block c of M reads only column block c of H.  Blocks
    are _BLOCK columns wide but the last, which spans at least
    _LAST_BLOCK_MIN columns (so for n < 260 there is one block), and pass
    through one buffer the size of the last block.  Overflow is left in M
    as inf or nan, for _lower_rows() to report.
    """
    h = working_matrix(lower, tri)
    n = h.shape[0]
    last = max(0, (n - _LAST_BLOCK_MIN) // _BLOCK) * _BLOCK
    edges = [*range(0, last, _BLOCK), last, n]
    buf = np.empty(n * (n - last))
    with np.errstate(over="ignore", invalid="ignore"):
        for c0, c1 in zip(edges, edges[1:]):
            cols = h[:, c0:c1]
            # a C-contiguous block: numpy copies a strided operand of += first
            out = np.matmul(lower.strict, cols, out=buf[: n * (c1 - c0)].reshape(n, c1 - c0))
            out += cols
            cols[...] = out
    return h


def _lower_rows(m: np.ndarray, r0: int, r1: int) -> np.ndarray:
    """Rows r0:r1 of np.tril(M), up to column r1; M's strict upper triangle is never read.

    Raises OverflowError on a non-finite entry: L T L^T leaves the double range.
    """
    rows = np.tril(m[r0:r1, :r1], r0)
    if not np.isfinite(rows).all():
        raise OverflowError("L T L^T overflows the double range (non-finite product entry)")
    return rows


def assemble(lower: UnitLowerTriangular, tri: SymmetricTridiagonal) -> SymmetricMatrix:
    """Full product L T L^T: the lower triangle of M = L H, mirrored upward.

    M is formed over H in column blocks, as residual() forms it, and made
    symmetric as SymmetricMatrix.from_full() makes its input:
    np.tril(M) + np.tril(M, -1).T.  Raises OverflowError when that triangle
    leaves the double range.
    """
    m = _product(lower, tri)
    sym = _lower_rows(m, 0, len(m))
    for r0 in range(0, len(m), _BLOCK):  # np.tril(M, -1).T, a block of rows at a time
        sym[r0 : r0 + _BLOCK] += np.tril(m[:, r0 : r0 + _BLOCK], -r0 - 1).T
    del m  # the SymmetricMatrix copy is made with only sym alive
    return SymmetricMatrix(sym)


def residual(
    a: SymmetricMatrix,
    perm: PermutationVector,
    lower: UnitLowerTriangular,
    tri: SymmetricTridiagonal,
) -> float:
    """Max-abs entry of P A P^T - L T L^T, with L T L^T as assemble() forms it.

    Both matrices are symmetric, so the max is taken over the lower
    triangle: rows r0:r1 of M = L H against columns 0:r1 of P A P^T, one
    block of _BLOCK rows at a time, so no n x n array beyond M is made.
    Raises OverflowError when L T L^T is not representable.
    """
    _check_perm(a, perm)
    if lower.n != a.n:
        raise ValueError(f"dimension mismatch: A is {a.n}, L is {lower.n}")
    m = _product(lower, tri)
    p = perm.p
    worst = 0.0
    for r0 in range(0, a.n, _BLOCK):
        r1 = min(r0 + _BLOCK, a.n)
        diff = np.tril(a.entries[np.ix_(p[r0:r1], p[:r1])], r0)
        diff -= _lower_rows(m, r0, r1)
        worst = max(worst, float(np.max(np.abs(diff, out=diff))))
    return worst
