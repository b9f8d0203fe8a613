"""Aasen factorization P A P^T = L T L^T and linear solves through it.

L is unit lower triangular with first column e_1, T is symmetric tridiagonal,
and P is chosen by partial pivoting so that every multiplier satisfies
|l_ij| <= 1.  There is one column sweep over a stack of matrices, split into
a plan and a run: a _SweepPlan holds the sweep's buffers for one (B, n)
stack shape, and every run() resets them and sweeps a stack.  A plan of
B > 1 matrices keeps each pivot step's views; factorize()'s plan of one
makes them as it goes.  search owns the stacked growth factor.  Every item
of a stack, in every run of a plan, gets the bits factorize() gives it alone.
"""
from __future__ import annotations

from dataclasses import dataclass
from math import gcd

import numpy as np

from .matcore import (
    PermutationVector,
    SymmetricMatrix,
    SymmetricTridiagonal,
    UnitLowerTriangular,
    _real,
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


def _pivot_offset(v: np.ndarray) -> np.ndarray:
    """Pivot offset (0 == current row) of each of the B columns of the (k, B) block v.

    The first entry within PIVOT_TIE_REL of the largest magnitude: a tie keeps
    the current row, and a zero column (where every entry ties) pivots on row 0.
    """
    av = np.abs(v)
    big = np.maximum.reduce(av, axis=0, keepdims=True)
    big *= 1.0 - PIVOT_TIE_REL
    return (av >= big).argmax(axis=0)


class _SweepPlan:
    """Aasen's column sweep on (B, n, n) stacks of finite symmetric matrices.

    A plan is built once for one stack shape and holds the sweep's buffers;
    run(a) sweeps a stack through them and returns z, t with a leading axis
    of B.  T is t, (B, 2n-1), interleaved: its diagonal in the even columns,
    t_ii in column 2i, and its off-diagonal in the odd ones, t_{i,i+1} in
    column 2i+1.  Row k of the work array z (B, n, w) holds row k of L, unit
    diagonal included, in columns 0..n-1, row perm[k] of A in columns
    n..2n-1, and in column 2n, as intp bits, n + perm[k] plus the item's flat
    offset: the flat index of entry perm[k] of the item's first carried A
    row.  (Row and column k of P A P^T are row and column perm[k] of A.)  A
    row swap moves all three, so column j of P A P^T from row j down is one
    flat gather: entry perm[j] of the carried rows j..n-1.

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
    kept item-last in the block work with beta_{i-1}, alpha_i and beta_i in
    rows 2i, 2i+1 and 2i+2 (row 0 is a -0.0, which adds nothing; t is rows
    1..2n-1, viewed item-major), and the current row of L is copied
    item-last with a zero before it, so the three products of the h update
    are one multiply of two (3, j+1, B) views.  The two BLAS calls of a step
    keep item-major operands, as numpy's stacked matmul needs: the ddot for
    h[j] and the gemv for the working column read rows of L from z, and h
    from the item-major buffer hm, into which the h update is copied.  Every
    per-item BLAS operand buffer, z and hm, has an item stride that is a
    multiple of 8 doubles, so all items share one alignment: some BLAS
    kernels (OpenBLAS's generic x86 ones) take an alignment-dependent path,
    and an item's bits must not depend on its place in the stack.

    Every item goes through the same floating-point operations whatever B is:
    the same elementwise products, one ddot per item for h[j] and one gemv per
    item for the working column (numpy's stacked matmul makes the same BLAS
    call per item as the 2-D one), and the same _pivot_offset() test.

    Plan and run.  A step works through ~30 views of the buffers, two
    matmul outputs and a pair of swap indices; at search sizes, making them
    is a fifth to a third of a sweep's time.  A plan of B > 1 matrices, which
    the search reruns every round, makes them at build time and keeps them,
    so its runs make none; a plan of one, which factorize() runs once, makes
    each step's views as the loop reaches it and drops them after, holding
    little more than the buffers (at n = 500, all 500 steps' views would
    raise the sweep's peak memory from 4.1 to 7.2 MB).  Both run the one
    loop body below.  Every run, the first included, resets the state it
    sweeps: it zeroes the L block below row 0 and the block work, and loads
    the A block and the index column of z; hm and the per-step outputs are
    written before they are read.  So every run of a plan gives each item
    the bits a new plan, and factorize() on the item alone, give it.

    A plan belongs to the call that builds it: run() returns views into its
    buffers, which the next run overwrites, and two threads must not run one
    plan at once.  Nothing keeps plans between calls.
    """

    def __init__(self, n: int, b: int):
        # rows of z are w >= 2n+1 doubles wide, with n*w a multiple of 8, so
        # that every item of a stack starts on a multiple of 8 doubles
        step = 8 // gcd(n, 8)
        w = -(-(2 * n + 1) // step) * step
        self.shape, self._rowoff = (b, n, n), np.arange(0, n * w, w)[:, None]
        self._z = z = np.zeros((b, n, w))
        z[:, 0, 0] = 1.0  # row 0 of L is e_1^T; no swap moves row 0
        zi = z.view(np.intp)
        # the flat index column of the identity permutation: n + k for item 0's row k
        self._start = (np.arange(b) * (n * w))[:, None] + np.arange(n, 2 * n)
        self._lower, self._a, self._perm = z[:, 1:, 1:n], z[:, :, n : 2 * n], zi[:, :, 2 * n]
        self._zflat = z.reshape(-1)
        # each row of z as one void item, so a row swap is a plain fancy index
        self._zrow = z.view(np.dtype((np.void, 8 * w))).reshape(-1)
        self._rows = np.arange(b)

        # item-last T (2n+1 rows), current row of L (n+2) and the h-update products (3n)
        self._work = work = np.zeros((6 * n + 3, b))
        work[0] = -0.0
        self._t = work[1 : 2 * n].T
        self._hm = np.empty((b, -(-n // 8) * 8))
        self._steps = list(self._views()) if b > 1 else None

    def _views(self):
        """Each pivot step's views and swap indices, in step order.

        A step is (h, update, column, swap): the gather and h[j] views, then
        those of the h update, the working column and the pivot swap, each
        None where the step makes no such part (the update at step 0, the
        working column at the last step, the swap at the last two)."""
        (b, n, _), z, hm, work = self.shape, self._z, self._hm, self._work
        t2, lpad, prod = work[: 2 * n + 1], work[2 * n + 1 : 3 * n + 3], work[3 * n + 3 :].reshape(3, n, b)
        rs = 8 * b
        tv = np.ndarray((3, n, b), float, work, 0, (rs, 2 * rs, 8))  # beta_{i-1}, alpha_i, beta_i
        lv = np.ndarray((3, n, b), float, work, (2 * n + 1) * rs, (rs, rs, 8))  # l_{i-1}, l_i, l_{i+1}
        # flat rows j+1 and j+1+r of zrow, the rows step j swaps
        pairs = np.empty((n, 2, b), np.intp)
        np.add(np.arange(1, b * n + 1, n), np.arange(n)[:, None], out=pairs[:, 0])
        for j in range(n):
            update = column = swap = None
            if j > 0:
                p, dot = prod[:, : j + 1], np.empty((b, 1, 1))
                update = (
                    lpad[1 : j + 2], z[:, j, : j + 1].T, tv[:, : j + 1], lv[:, : j + 1], p,
                    p[0, :j], p[1, :j], p[2, :j], p[0, j], hm[:, :j].T,
                    z[:, j, None, :j], hm[:, :j, None], dot, dot[:, 0, 0],
                )
            if j < n - 1:
                gemv = np.empty((b, n - j - 1, 1))
                column = (
                    z[:, j + 1 :, : j + 1], hm[:, : j + 1, None], gemv, gemv[:, :, 0].T,
                    t2[2 * j + 2], z[:, j + 1, j + 1],
                )
            if j < n - 2:
                pair = pairs[j]
                swap = z[:, j + 1 :, j + 1].T, pair, pair[::-1], pair[0], pair[1]
            yield (self._rowoff[j:], self._perm[:, j], hm[:, j], t2[2 * j + 1]), update, column, swap

    def run(self, a: np.ndarray):
        """Sweep the (B, n, n) stack a; returns views z, t into the plan's buffers."""
        if a.shape != self.shape:
            raise ValueError(f"stack has shape {a.shape}, the plan's is {self.shape}")
        rows, zflat, zrow = self._rows, self._zflat, self._zrow
        self._lower[...] = 0.0
        self._work[1:] = 0.0
        self._a[...] = a
        self._perm[...] = self._start
        for (rowoff, perm, hj, alpha), update, column, swap in self._steps or self._views():
            col = zflat[rowoff + perm]
            if update is None:  # no row has moved and no product is formed: h[0] = t_11 = a_11
                hj[...] = alpha[...] = col[0]
            else:
                lrow, lcur, tv, lv, p, p0, p1, p2, p0j, hmt, ldot, hdot, dot, dotv = update
                lrow[...] = lcur
                np.multiply(tv, lv, out=p)
                # h_i = (alpha_i l_i + beta_{i-1} l_{i-1}) + beta_i l_{i+1}, i < j
                hmt[...] = np.add(np.add(p1, p0, out=p1), p2, out=p1)
                np.matmul(ldot, hdot, out=dot)
                np.subtract(col[0], dotv, out=hj)
                np.subtract(hj, p0j, out=alpha)
            if column is None:  # the last step has no working column
                break

            lgemv, hgemv, gemv, gemvt, piv, diag = column
            v = col[1:]
            np.matmul(lgemv, hgemv, out=gemv)
            np.subtract(v, gemvt, out=v)
            if swap is None:  # one row is left: it is its own pivot, and needs no swap
                piv[...] = v[0]
            else:
                lcol, pair, rpair, row0, row1 = swap
                r = _pivot_offset(v)
                piv[...] = v[r, rows]
                # a zero pivot (zero working column) leaves zero multipliers; the
                # clip removes the one-ulp excess over 1 division roundoff can add
                q = np.divide(v, piv, out=np.zeros(v.shape), where=piv != 0.0)
                lcol[...] = np.minimum(np.maximum(q, -1.0, out=q), 1.0, out=q)
                np.add(row0, r, out=row1)
                zrow[pair] = zrow[rpair]
            diag[...] = 1.0
        return self._z, self._t


def factorize(a: SymmetricMatrix) -> AasenFactors:
    """Aasen factorization with partial pivoting: a one-shot sweep plan run on a stack of one.

    A zero working column yields zero multipliers, not a failure; the
    factorization exists for every (finite) SymmetricMatrix.  Raises
    OverflowError when a factor entry overflows the double range.
    """
    n = a.n
    # overflow near the top of the double range is reported once, below
    with np.errstate(over="ignore", invalid="ignore"):
        z, t = _SweepPlan(n, 1).run(a.entries[None])
    lower = z[0, :, :n]
    if not (np.isfinite(t).all() and np.isfinite(lower).all()):
        raise OverflowError("factorization overflows the double range (non-finite factor entry)")

    np.fill_diagonal(lower, 0.0)  # the block is L with its unit diagonal; keep the strict part
    return AasenFactors(
        p=PermutationVector(z[0].view(np.intp)[:, 2 * n] - n),
        L=UnitLowerTriangular(lower),
        T=SymmetricTridiagonal(t[0, ::2], t[0, 1::2]),
    )


def _check_rhs(y, n: int) -> np.ndarray:
    """y as a float array, after the checks both solves make: length n, finite entries."""
    y = np.asarray(_real(y), dtype=float)
    if y.shape != (n,):
        raise ValueError(f"right-hand side has length {y.shape}, expected ({n},)")
    if not np.isfinite(y).all():
        raise ValueError(f"right-hand side entries must be finite, got {y[~np.isfinite(y)][0]}")
    return y


def tridiag_solve(tri: SymmetricTridiagonal, y) -> np.ndarray:
    """Solve T z = y by elimination with row partial pivoting.

    Pivoting fills at most one extra superdiagonal beyond the original band.
    Raises SingularMatrixError (with the pivot index) on an exactly zero
    pivot, a scale-free test, ValueError on a non-finite y, and
    OverflowError on a non-finite solution.
    """
    n = tri.n
    y = _check_rhs(y, n)

    sub = np.zeros(n)  # sub[k]  = row k+1 entry in column k
    d = tri.diag.copy()
    sup = np.zeros(n)  # sup[k]  = row k   entry in column k+1
    sup2 = np.zeros(n)  # sup2[k] = row k   entry in column k+2 (pivoting fill)
    sub[: n - 1] = sup[: n - 1] = tri.offdiag
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
    n = f.n
    b = _check_rhs(b, n)
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
