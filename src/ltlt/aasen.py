"""Aasen factorization P A P^T = L T L^T and linear solves through it.

L is unit lower triangular with first column e_1, T is symmetric tridiagonal,
and P is chosen by partial pivoting so that every multiplier satisfies
|l_ij| <= 1.  There is one column sweep, _sweep(), over a stack of matrices:
factorize() runs it on a stack of one, and the search scores a whole stack
of candidates through _stacked_growth().  The sweep keeps its elementwise
state item-last, as (k, B) blocks, and hands numpy's stacked matmul
item-major operands whose item stride is a multiple of 8 doubles, so every
item of a stack gets the bits factorize() gives it alone.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import gcd

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


def _pivot_offset(v: np.ndarray, axis: int = -1) -> np.ndarray:
    """Pivot offset (0 == current row) in a column v, or along an axis of a stack v.

    The first entry within PIVOT_TIE_REL of the largest magnitude: a tie keeps
    the current row, and a zero column (where every entry ties) pivots on row 0.
    """
    av = np.abs(v)
    big = np.maximum.reduce(av, axis=axis, keepdims=True)
    big *= 1.0 - PIVOT_TIE_REL
    return (av >= big).argmax(axis=axis)


@lru_cache(maxsize=None)
def _row_layout(n: int):
    """(w, rowoff, first_row, zrow_t) for _sweep() at dimension n.

    w is the row width of z: at least 2n+1 doubles, with n*w a multiple of 8,
    so that every item of a stack starts on a multiple of 8 doubles.  rowoff
    is the (n, 1) column of flat row offsets k*w, first_row = n + arange(n)
    the flat indices of the first A row of item 0, and zrow_t the void dtype
    of one row.
    """
    step = 8 // gcd(n, 8)
    w = -(-(2 * n + 1) // step) * step
    rowoff = np.arange(0, n * w, w)[:, None]
    first_row = np.arange(n, 2 * n)
    for a in (rowoff, first_row):
        a.setflags(write=False)  # shared by every sweep at this n
    return w, rowoff, first_row, np.dtype((np.void, 8 * w))


def _sweep(a: np.ndarray):
    """Aasen's column sweep on a (B, n, n) stack of finite symmetric matrices.

    Returns z, t with a leading axis of B.  T is t, (B, 2n-1), interleaved:
    its diagonal in the even columns, t_ii in column 2i, and its
    off-diagonal in the odd ones, t_{i,i+1} in column 2i+1.  Row k of the
    work array z (B, n, w) holds row k of L, unit diagonal included, in
    columns 0..n-1, row perm[k] of A in columns n..2n-1, and in column 2n,
    as intp bits, n + perm[k] plus the item's flat offset: the flat index of
    entry perm[k] of the item's first carried A row.  (Row and column k of
    P A P^T are row and column perm[k] of A.)  A row swap moves all three, so
    column j of P A P^T from row j down is one flat gather: entry perm[j] of
    the carried rows j..n-1.

    Each step forms the working column h of H = T L^T and pivots on the
    entry of largest magnitude among the remaining rows, so multipliers never
    exceed 1.  It writes them into their L column, then makes its one swap:
    the current and pivot rows of z, whole (their later L columns are still
    0).  The first step reads column 0 of A as it is, with no products to
    form (h[0] = a_11), and the last pivot step has one row left, its own
    pivot with multiplier 1, so it makes no pivot test and no swap; both give
    the bits the general step would.

    Layout.  A step's elementwise work (the h update, alpha, the working
    column, the pivot test and the multipliers) runs item-last, on
    contiguous (k, B) blocks, where numpy's per-call cost is lowest.  T is
    kept item-last with beta_{i-1}, alpha_i and beta_i in rows 2i, 2i+1 and
    2i+2 (row 0 is a -0.0, which adds nothing; t is rows 1..2n-1, viewed
    item-major), and the current row of L is copied item-last with a zero
    before it, so the three products of the h update are one multiply of two
    (3, j+1, B) views.  The two BLAS calls of a step keep item-major
    operands, as numpy's stacked matmul needs: the ddot for h[j] and the
    gemv for the working column read rows of L from z, and h from the
    item-major buffer hm, into which the h update is copied.  Every per-item
    BLAS operand buffer, z and hm, has an item stride that is a multiple of
    8 doubles, so all items share one alignment: some BLAS kernels
    (OpenBLAS's generic x86 ones) take an alignment-dependent path, and an
    item's bits must not depend on its place in the stack.

    Every item goes through the same floating-point operations whatever B is:
    the same elementwise products, one ddot per item for h[j] and one gemv per
    item for the working column (numpy's stacked matmul makes the same BLAS
    call per item as the 2-D one), and the same _pivot_offset() test.
    """
    b, n, _ = a.shape
    w, rowoff, first_row, zrow_t = _row_layout(n)
    z = np.zeros((b, n, w))
    z[:, 0, 0] = 1.0
    z[:, :, n : 2 * n] = a
    zi = z.view(np.intp)
    rows = np.arange(b)
    np.add((rows * (n * w))[:, None], first_row, out=zi[:, :, 2 * n])  # perm is the identity
    zflat = z.reshape(-1)
    # each row of z as one void item, so a row swap is a plain fancy index
    zrow = z.view(zrow_t).reshape(-1)
    pair = np.empty((2, b), np.intp)  # flat rows j+1 and j+1+r of zrow
    first = np.arange(1, b * n, n)

    # item-last T (2n+1 rows), current row of L (n+2) and the h-update products (3n)
    work = np.zeros((6 * n + 3, b))
    t2, lpad, prod = work[: 2 * n + 1], work[2 * n + 1 : 3 * n + 3], work[3 * n + 3 :].reshape(3, n, b)
    t2[0] = -0.0
    rs = 8 * b
    tv = np.ndarray((3, n, b), float, work, 0, (rs, 2 * rs, 8))  # beta_{i-1}, alpha_i, beta_i
    lv = np.ndarray((3, n, b), float, work, (2 * n + 1) * rs, (rs, rs, 8))  # l_{i-1}, l_i, l_{i+1}
    hm = np.empty((b, -(-n // 8) * 8))

    for j in range(n):
        col = zflat[rowoff[j:] + zi[:, j, 2 * n]]
        if j == 0:  # no row has moved and no product is formed: h[0] = t_11 = a_11
            hm[:, 0] = t2[1] = col[0]
        else:
            lpad[1 : j + 2] = z[:, j, : j + 1].T
            p = np.multiply(tv[:, : j + 1], lv[:, : j + 1], out=prod[:, : j + 1])
            # h_i = (alpha_i l_i + beta_{i-1} l_{i-1}) + beta_i l_{i+1}, i < j
            h = np.add(p[1, :j], p[0, :j], out=p[1, :j])
            hm[:, :j] = np.add(h, p[2, :j], out=h).T
            dot = np.matmul(z[:, j, None, :j], hm[:, :j, None])[:, 0, 0]
            np.subtract(col[0], dot, out=hm[:, j])
            np.subtract(hm[:, j], p[0, j], out=t2[2 * j + 1])
        if j == n - 1:
            break

        v = col[1:]
        np.subtract(v, np.matmul(z[:, j + 1 :, : j + 1], hm[:, : j + 1, None])[:, :, 0].T, out=v)
        piv = t2[2 * j + 2]
        if j == n - 2:  # one row is left: it is its own pivot, and needs no swap
            piv[...] = v[0]
        else:
            r = _pivot_offset(v, axis=0)
            piv[...] = v[r, rows]
            # a zero pivot (zero working column) leaves zero multipliers; the
            # clip removes the one-ulp excess over 1 division roundoff can add
            q = np.divide(v, piv, out=np.zeros(v.shape), where=piv != 0.0)
            z[:, j + 1 :, j + 1] = np.minimum(np.maximum(q, -1.0, out=q), 1.0, out=q).T
            np.add(first, j, out=pair[0])
            np.add(pair[0], r, out=pair[1])
            zrow[pair] = zrow[pair[::-1]]
        z[:, j + 1, j + 1] = 1.0
    return z, t2[1 : 2 * n].T


def factorize(a: SymmetricMatrix) -> AasenFactors:
    """Aasen factorization with partial pivoting: _sweep() on a stack of one.

    A zero working column yields zero multipliers, not a failure; the
    factorization exists for every (finite) SymmetricMatrix.  Raises
    OverflowError when a factor entry overflows the double range.
    """
    n = a.n
    # overflow near the top of the double range is reported once, below
    with np.errstate(over="ignore", invalid="ignore"):
        z, t = _sweep(a.entries[None])
    lower = z[0, :, :n]
    if not (np.isfinite(t).all() and np.isfinite(lower).all()):
        raise OverflowError("factorization overflows the double range (non-finite factor entry)")

    return AasenFactors(
        p=PermutationVector(z[0].view(np.intp)[:, 2 * n] - n),
        L=UnitLowerTriangular(np.tril(lower, -1)),
        T=SymmetricTridiagonal(t[0, ::2], t[0, 1::2]),
    )


def _stacked_growth(a: np.ndarray) -> np.ndarray:
    """Growth factors of a (B, n, n) stack of finite symmetric matrices.

    Runs _sweep() on all B items at once and keeps only T, so each value
    equals growth_factor(A, factorize(A)) bit for bit.  The zero matrix
    scores 0, as in search.evaluate_candidate().
    """
    b = a.shape[0]
    t = np.maximum.reduce(np.abs(_sweep(a)[1]), axis=1)
    m = np.maximum.reduce(np.abs(a.reshape(b, -1)), axis=1)
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
