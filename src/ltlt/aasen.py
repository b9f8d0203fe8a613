"""Aasen factorization P A P^T = L T L^T and linear solves through it.

L is unit lower triangular with first column e_1, T is symmetric tridiagonal,
and P is chosen by partial pivoting so that every multiplier satisfies
|l_ij| <= 1.
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

# A tridiagonal pivot at or below this magnitude is treated as an exact zero.
SINGULAR_PIVOT_TOL = 1e-300

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


def _pivot_offset(v: np.ndarray) -> np.ndarray:
    """Pivot offset (0 == current row) in a column v, or per row of a (B, m) stack v.

    The first entry within PIVOT_TIE_REL of the largest magnitude: a tie keeps
    the current row, and a zero column (where every entry ties) pivots on row 0.
    """
    av = np.abs(v)
    return np.argmax(av >= av.max(axis=-1, keepdims=True) * (1.0 - PIVOT_TIE_REL), axis=-1)


def factorize(a: SymmetricMatrix) -> AasenFactors:
    """Column-by-column Aasen factorization with partial pivoting.

    Each step forms the working column h of H = T L^T, then the pivot is the
    entry of largest magnitude among the remaining rows, so multipliers never
    exceed 1.  A zero working column yields zero multipliers, not a failure;
    the factorization exists for every finite symmetric matrix.  Raises
    OverflowError when a factor entry overflows the double range.
    """
    if not np.all(np.isfinite(a.entries)):
        raise ValueError("matrix entries must be finite")
    n = a.n
    aw = a.entries.copy()
    lw = np.eye(n)
    perm = np.arange(n)
    alpha = np.zeros(n)
    beta = np.zeros(max(n - 1, 0))

    # overflow near the top of the double range is reported once, below
    with np.errstate(over="ignore", invalid="ignore"):
        for j in range(n):
            lj = lw[j, : j + 1]
            h = np.empty(j + 1)
            if j > 0:
                hh = alpha[:j] * lj[:j]
                hh[1:] += beta[: j - 1] * lj[: j - 1]
                hh += beta[:j] * lj[1 : j + 1]
                h[:j] = hh
            h[j] = aw[j, j] - lj[:j] @ h[:j]
            alpha[j] = h[j] - (beta[j - 1] * lj[j - 1] if j > 0 else 0.0)

            if j < n - 1:
                v = aw[j + 1 :, j] - lw[j + 1 :, : j + 1] @ h
                r = int(_pivot_offset(v))
                if r != 0:
                    rr = j + 1 + r
                    v[[0, r]] = v[[r, 0]]
                    perm[[j + 1, rr]] = perm[[rr, j + 1]]
                    lw[[j + 1, rr], : j + 1] = lw[[rr, j + 1], : j + 1]
                    aw[[j + 1, rr], :] = aw[[rr, j + 1], :]
                    aw[:, [j + 1, rr]] = aw[:, [rr, j + 1]]
                beta[j] = v[0]
                if v[0] != 0.0:
                    # pivoting bounds the quotients by 1 in exact arithmetic; the
                    # clip removes the one-ulp excess division roundoff can add
                    lw[j + 2 :, j + 1] = np.clip(v[1:] / v[0], -1.0, 1.0)
    if not (np.isfinite(alpha).all() and np.isfinite(beta).all() and np.isfinite(lw).all()):
        raise OverflowError("factorization overflows the double range (non-finite factor entry)")

    return AasenFactors(
        p=PermutationVector(perm),
        L=UnitLowerTriangular(np.tril(lw, -1)),
        T=SymmetricTridiagonal(alpha, beta),
    )


def _stacked_growth(a: np.ndarray) -> np.ndarray:
    """Growth factors of a (B, n, n) stack of finite symmetric matrices.

    Runs the column sweep of factorize() on all B items at once and keeps only
    T.  Every item goes through the same floating-point operations as in
    factorize(): the same elementwise products, one ddot per item for h[j] and
    one gemv per item for the working column (numpy's stacked matmul makes the
    same BLAS call per item as the 2-D one), and the same _pivot_offset() test,
    so each value equals growth_factor(A, factorize(A)) bit for bit.  The zero
    matrix scores 0, as in search.evaluate_candidate().
    """
    b, n, _ = a.shape
    rows = np.arange(b)
    perm = np.tile(np.arange(n), (b, 1))  # row/column k of P A P^T is a[perm[k]]
    lw = np.tile(np.eye(n), (b, 1, 1))
    alpha = np.zeros((b, n))
    beta = np.zeros((b, max(n - 1, 0)))

    for j in range(n):
        lj = lw[:, j, : j + 1]
        h = np.empty((b, j + 1))
        if j > 0:
            hh = alpha[:, :j] * lj[:, :j]
            hh[:, 1:] += beta[:, : j - 1] * lj[:, : j - 1]
            hh += beta[:, :j] * lj[:, 1 : j + 1]
            h[:, :j] = hh
        pj = perm[:, j]
        dot = np.matmul(lj[:, None, :j], h[:, :j, None])[:, 0, 0]
        h[:, j] = a[rows, pj, pj] - dot
        alpha[:, j] = h[:, j] - (beta[:, j - 1] * lj[:, j - 1] if j > 0 else 0.0)

        if j < n - 1:
            col = a[rows[:, None], perm[:, j + 1 :], pj[:, None]]
            v = col - np.matmul(lw[:, j + 1 :, : j + 1], h[:, :, None])[:, :, 0]
            r = _pivot_offset(v)
            rr = j + 1 + r
            v[rows, 0], v[rows, r] = v[rows, r], v[rows, 0]
            perm[rows, j + 1], perm[rows, rr] = perm[rows, rr], perm[rows, j + 1]
            lw[rows, j + 1, : j + 1], lw[rows, rr, : j + 1] = (
                lw[rows, rr, : j + 1],
                lw[rows, j + 1, : j + 1],
            )
            piv = v[:, :1]
            beta[:, j] = piv[:, 0]
            # a zero pivot leaves the column zero, as factorize() does
            q = np.divide(v[:, 1:], piv, out=np.zeros_like(v[:, 1:]), where=piv != 0.0)
            lw[:, j + 2 :, j + 1] = np.clip(q, -1.0, 1.0)

    t = np.abs(alpha).max(axis=1)
    if n > 1:
        t = np.maximum(t, np.abs(beta).max(axis=1))
    m = np.abs(a).max(axis=(1, 2))
    return np.divide(t, m, out=np.zeros(b), where=m != 0.0)


def tridiag_solve(tri: SymmetricTridiagonal, y) -> np.ndarray:
    """Solve T z = y by elimination with row partial pivoting.

    Pivoting fills at most one extra superdiagonal beyond the original band.
    Raises SingularMatrixError (with the pivot index) on a zero pivot.
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

    for k in range(n - 1):
        if abs(sub[k]) > abs(d[k]):
            d[k], sub[k] = sub[k], d[k]
            sup[k], d[k + 1] = d[k + 1], sup[k]
            sup2[k], sup[k + 1] = sup[k + 1], sup2[k]
            rhs[k], rhs[k + 1] = rhs[k + 1], rhs[k]
        if abs(d[k]) <= SINGULAR_PIVOT_TOL:
            raise SingularMatrixError(k)
        m = sub[k] / d[k]
        d[k + 1] -= m * sup[k]
        sup[k + 1] -= m * sup2[k]
        rhs[k + 1] -= m * rhs[k]
    if abs(d[n - 1]) <= SINGULAR_PIVOT_TOL:
        raise SingularMatrixError(n - 1)

    z = np.zeros(n)
    for k in range(n - 1, -1, -1):
        acc = rhs[k]
        if k + 1 < n:
            acc -= sup[k] * z[k + 1]
        if k + 2 < n:
            acc -= sup2[k] * z[k + 2]
        z[k] = acc / d[k]
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
