"""Aasen factorization P A P^T = L T L^T and linear solves through it.

L is unit lower triangular with first column e_1, T is symmetric tridiagonal,
and P is chosen by partial pivoting so that every multiplier satisfies
|l_ij| <= 1.  There is one column sweep, _sweep(), over a stack of matrices:
factorize() runs it on a stack of one, and the search scores a whole stack
of candidates through _stacked_growth().
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .matcore import (
    PermutationVector,
    SymmetricMatrix,
    SymmetricTridiagonal,
    UnitLowerTriangular,
)

# Candidates within one part in 1e12 of the largest magnitude count as tied.
# Matrices realizing extreme growth put exact ties in every pivot column;
# a strict comparison would let entry roundoff pick the branch at random.
PIVOT_TIE_REL = 1e-12

# Offsets of the two rows a pivot step swaps: the current row and the pivot row.
_E01 = np.array([0, 1])


class SingularMatrixError(ValueError):
    """Raised when the tridiagonal factor is singular during a solve."""

    def __init__(self, pivot_index: int):
        self.pivot_index = pivot_index
        super().__init__(f"singular tridiagonal system: zero pivot at index {pivot_index}")


@dataclass(frozen=True)
class AasenFactors:
    """Output of factorize(): permutation p, unit lower L, tridiagonal T."""

    p: PermutationVector
    L: UnitLowerTriangular
    T: SymmetricTridiagonal

    @property
    def n(self) -> int:
        return self.T.n


def _pivot_offset(v: np.ndarray) -> np.ndarray:
    """Pivot offset (0 == current row) in a column v, or per row of a (B, m) stack v.

    The first entry within PIVOT_TIE_REL of the largest magnitude: a tie keeps
    the current row, and a zero column (where every entry ties) pivots on row 0.
    """
    av = np.abs(v)
    big = np.maximum.reduce(av, axis=-1, keepdims=True)
    return (av >= big * (1.0 - PIVOT_TIE_REL)).argmax(axis=-1)


def _sweep(a: np.ndarray):
    """Aasen's column sweep on a (B, n, n) stack of finite symmetric matrices.

    Returns z, t with a leading axis of B.  Row k of the work array z
    (B, n, n+1) holds perm[k] in column 0, as a float (row and column k of
    P A P^T are row and column perm[k] of A), and row k of L, unit diagonal
    included, in columns 1..n.  T is one (B, 2n-1) buffer t: its diagonal
    in columns 0..n-1, its off-diagonal in columns n..2n-2.  Each step forms
    the working column h of H = T L^T in one (B, n) buffer and pivots on the
    entry of largest magnitude among the remaining rows, so multipliers never
    exceed 1.  It writes them into their L column, then makes its one swap:
    the current and pivot rows of z, whole (their later columns are still 0).
    The first step reads column 0 of A as it is, with no products to form
    (h[0] = a_11), and the last pivot step has one row left, its own pivot
    with multiplier 1, so it makes no pivot test and no swap; both give the
    bits the general step would.
    Every item goes through the same floating-point operations whatever B is:
    the same elementwise products, one ddot per item for h[j] and one gemv per
    item for the working column (numpy's stacked matmul makes the same BLAS
    call per item as the 2-D one), and the same _pivot_offset() test.
    """
    b, n, _ = a.shape
    rows = np.arange(b)[:, None]
    z = np.zeros((b, n, n + 1))
    z[:, :, 0] = np.arange(n)
    z[:, 0, 1] = 1.0
    t = np.zeros((b, 2 * n - 1))
    alpha, beta = t[:, :n], t[:, n:]
    h = np.empty((b, n))
    # each row of z as one void item, so a row swap is a plain fancy index
    zrow = z.view(np.dtype((np.void, z.itemsize * (n + 1))))[:, :, 0]

    for j in range(n):
        if j == 0:  # no row has moved and no product is formed: h[0] = t_11 = a_11
            col = a[:, :, 0]
            h[:, 0] = alpha[:, 0] = col[:, 0]
        else:
            p = z[:, j:, 0].astype(np.intp)
            col = a[rows, p, p[:, :1]]  # diagonal entry, then the rest of the column
            lj = z[:, j, 1 : j + 2]
            np.multiply(alpha[:, :j], lj[:, :j], out=h[:, :j])
            if j > 1:
                h[:, 1:j] += beta[:, : j - 1] * lj[:, : j - 1]
            h[:, :j] += beta[:, :j] * lj[:, 1 : j + 1]
            dot = np.matmul(lj[:, None, :j], h[:, :j, None])[:, 0, 0]
            np.subtract(col[:, 0], dot, out=h[:, j])
            np.subtract(h[:, j], beta[:, j - 1] * lj[:, j - 1], out=alpha[:, j])
        if j == n - 1:
            break

        v = col[:, 1:] - np.matmul(z[:, j + 1 :, 1 : j + 2], h[:, : j + 1, None])[:, :, 0]
        if j == n - 2:  # one row is left: it is its own pivot, and needs no swap
            beta[:, j] = v[:, 0]
        else:
            r = _pivot_offset(v)[:, None]
            piv = v[rows, r]
            beta[:, j] = piv[:, 0]
            # a zero pivot (zero working column) leaves zero multipliers; the
            # clip removes the one-ulp excess over 1 division roundoff can add
            q = np.divide(v, piv, out=np.zeros(v.shape), where=piv != 0.0)
            np.minimum(np.maximum(q, -1.0, out=q), 1.0, out=z[:, j + 1 :, j + 2])
            pair = j + 1 + r * _E01  # rows j+1 and j+1+r
            zrow[rows, pair] = zrow[rows, pair[:, ::-1]]
        z[:, j + 1, j + 2] = 1.0
    return z, t


def factorize(a: SymmetricMatrix) -> AasenFactors:
    """Aasen factorization with partial pivoting: _sweep() on a stack of one.

    A zero working column yields zero multipliers, not a failure; the
    factorization exists for every finite symmetric matrix.  Raises
    OverflowError when a factor entry overflows the double range.
    """
    if not np.all(np.isfinite(a.entries)):
        raise ValueError("matrix entries must be finite")
    # overflow near the top of the double range is reported once, below
    with np.errstate(over="ignore", invalid="ignore"):
        z, t = _sweep(a.entries[None])
    if not (np.isfinite(t).all() and np.isfinite(z).all()):
        raise OverflowError("factorization overflows the double range (non-finite factor entry)")

    n = a.n
    return AasenFactors(
        p=PermutationVector(z[0, :, 0]),
        L=UnitLowerTriangular(np.tril(z[0, :, 1:], -1)),
        T=SymmetricTridiagonal(t[0, :n], t[0, n:]),
    )


def _stacked_growth(a: np.ndarray) -> np.ndarray:
    """Growth factors of a (B, n, n) stack of finite symmetric matrices.

    Runs _sweep() on all B items at once and keeps only T, so each value
    equals growth_factor(A, factorize(A)) bit for bit.  The zero matrix
    scores 0, as in search.evaluate_candidate().
    """
    b = a.shape[0]
    t = np.abs(_sweep(a)[1]).max(axis=1)
    m = np.abs(a.reshape(b, -1)).max(axis=1)
    return np.divide(t, m, out=np.zeros(b), where=m != 0.0)


def tridiag_solve(tri: SymmetricTridiagonal, y) -> np.ndarray:
    """Solve T z = y by elimination with row partial pivoting.

    Pivoting fills at most one extra superdiagonal beyond the original band.
    Raises SingularMatrixError (with the pivot index) on an exactly zero
    pivot, a scale-free test, and OverflowError on a non-finite solution.
    """
    y = np.asarray(y, dtype=float)
    n = tri.n
    if y.shape != (n,):
        raise ValueError(f"right-hand side has length {y.shape}, expected ({n},)")

    sub = np.zeros(n)  # sub[k]  = row k+1 entry in column k
    d = tri.diag.copy()
    sup = np.zeros(n)  # sup[k]  = row k   entry in column k+1
    sup2 = np.zeros(n)  # sup2[k] = row k   entry in column k+2 (pivoting fill)
    if n > 1:
        sub[: n - 1] = tri.offdiag
        sup[: n - 1] = tri.offdiag
    rhs = y.copy()
    z = np.zeros(n)

    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(n - 1):
            if abs(sub[k]) > abs(d[k]):
                d[k], sub[k] = sub[k], d[k]
                sup[k], d[k + 1] = d[k + 1], sup[k]
                sup2[k], sup[k + 1] = sup[k + 1], sup2[k]
                rhs[k], rhs[k + 1] = rhs[k + 1], rhs[k]
            if d[k] == 0.0:
                raise SingularMatrixError(k)
            m = sub[k] / d[k]
            d[k + 1] -= m * sup[k]
            sup[k + 1] -= m * sup2[k]
            rhs[k + 1] -= m * rhs[k]
        if d[n - 1] == 0.0:
            raise SingularMatrixError(n - 1)

        for k in range(n - 1, -1, -1):
            acc = rhs[k]
            if k + 1 < n:
                acc -= sup[k] * z[k + 1]
            if k + 2 < n:
                acc -= sup2[k] * z[k + 2]
            z[k] = acc / d[k]
    if not np.isfinite(z).all():
        raise OverflowError("tridiagonal solve overflows the double range (non-finite solution)")
    return z


def solve(f: AasenFactors, b) -> np.ndarray:
    """Solve A x = b given factors of A.

    Pipeline: permute, forward-substitute L, tridiagonal solve, back-substitute
    L^T, inverse permute.
    """
    b = np.asarray(b, dtype=float)
    n = f.n
    if b.shape != (n,):
        raise ValueError(f"right-hand side has length {b.shape}, expected ({n},)")
    ls = f.L.strict
    p = f.p.p

    y = b[p].copy()
    for i in range(1, n):
        y[i] -= ls[i, :i] @ y[:i]

    z = tridiag_solve(f.T, y)

    for i in range(n - 2, -1, -1):
        z[i] -= ls[i + 1 :, i] @ z[i + 1 :]

    x = np.empty(n)
    x[p] = z
    return x
