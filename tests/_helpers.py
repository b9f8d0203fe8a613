"""Shared test helpers: random inputs and independent oracles.

The oracles here deliberately avoid the code paths they check: the product
oracle is a pure-Python triple loop, the tridiagonal oracle is a dense
solve, and the LP oracle enumerates basic points of the inequality system.
lp_simplex is the float two-phase simplex that once solved the slack LP; it
checks the exact closed-form optimum of lpcert.solve_lp up to n = 20.
The Aasen oracle factorize_scalar is the column sweep on one matrix, swapping
rows of a working copy; it is independent of the stacked indexing of
aasen._SweepPlan and shares only the pivot test, aasen._pivot_offset.
maximize_growth_scalar runs the restarts one after another through
pattern_search_scalar, which scores each probe on its own through factorize;
it shares only the step constants of ltlt.search and the sweep itself.
certificate_rows_scalar builds the growth certificate one labelled row at a
time, forming each entry of H = T L^T it needs in Python floats from T's
band, in the order matcore.working_matrix documents; it shares no code with
growth.growth_certificate, and no BLAS call.
"""
import itertools
from typing import List, NamedTuple

import numpy as np

from ltlt import search
from ltlt.aasen import _pivot_offset
from ltlt.lpcert import FEASIBILITY_TOL, DeltaProgram
from ltlt.matcore import SymmetricMatrix, max_abs
from ltlt.search import SearchOutcome, evaluate_candidate


def rand_sym(rng, n, scale=1.0) -> SymmetricMatrix:
    m = rng.uniform(-scale, scale, (n, n))
    return SymmetricMatrix.from_full((m + m.T) / 2.0)


def extremal_n6_half() -> SymmetricMatrix:
    """The n = 6 extremal family at delta = 1/2, written out.

    extremal_matrix rejects that delta: its reference t[3,2] = 1/4 - delta/2
    is 0, so the working column pivoting on it vanishes and factorize takes
    zero multipliers.  The matrix stays a fair case for the factorization,
    its certificate and the solve.
    """
    return SymmetricMatrix(np.array([
        [1, 1, 1, 1, 1, -1],
        [1, -0.5, -0.5, -0.5, -0.5, 0.5],
        [1, -0.5, -1, -1, 1, -1],
        [1, -0.5, -1, -0.5, 1, 0],
        [1, -0.5, 1, 1, 1, -1],
        [-1, 0.5, -1, 0, -1, 1],
    ], float))


def assemble_triple_loop(l_full, diag, off):
    """L T L^T by explicit loops; independent of any matmul kernel."""
    n = len(diag)
    t = [[0.0] * n for _ in range(n)]
    for i in range(n):
        t[i][i] = diag[i]
    for i in range(n - 1):
        t[i + 1][i] = off[i]
        t[i][i + 1] = off[i]
    out = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            acc = 0.0
            for k in range(n):
                for l in range(n):
                    acc += l_full[i][k] * t[k][l] * l_full[j][l]
            out[i, j] = acc
    return out


def column_identity_residual(a_perm, l_full, diag, off):
    """Worst deviation from the product identities tying A to L and T.

    Checks, for the permuted matrix (0-based indices, structural L values):
      column 0:  a[i,0] = l[i,1] * t[1,0]                        for i >= 1
      interior:  a[i,q] = sum_{j=1}^{q} l[q,j] * w[i,j]          for 1 <= q < i
      diagonal:  a[i,i] = sum_{j=1}^{i-1} l[i,j] * w[i,j]
                          + l[i,i-1] * t[i-1,i] + t[i,i]         for i >= 2
    where w[i,j] = l[i,j-1] t[j-1,j] + l[i,j] t[j,j] + l[i,j+1] t[j+1,j].
    """
    n = len(diag)
    worst = 0.0

    def w(i, j):
        acc = l_full[i][j - 1] * off[j - 1] + l_full[i][j] * diag[j]
        if j + 1 < n:
            acc += l_full[i][j + 1] * off[j]
        return acc

    for i in range(1, n):
        worst = max(worst, abs(a_perm[i][0] - l_full[i][1] * off[0]))
    for i in range(2, n):
        for q in range(1, i):
            acc = sum(l_full[q][j] * w(i, j) for j in range(1, q + 1))
            worst = max(worst, abs(a_perm[i][q] - acc))
    for i in range(2, n):
        acc = sum(l_full[i][j] * w(i, j) for j in range(1, i))
        acc += l_full[i][i - 1] * off[i - 1] + diag[i]
        worst = max(worst, abs(a_perm[i][i] - acc))
    return worst


def factorize_scalar(a):
    """Reference Aasen sweep on one symmetric (n, n) array.

    Returns (perm, L_strict, diag, offdiag) with the same bits that
    aasen.factorize gives for the same matrix.
    """
    aw = np.array(a, dtype=float)
    n = aw.shape[0]
    lw = np.eye(n)
    perm = np.arange(n)
    alpha = np.zeros(n)
    beta = np.zeros(max(n - 1, 0))

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
    return perm, np.tril(lw, -1), alpha, beta


def certificate_rows_scalar(a, f):
    """Reference certificate rows [(label, lhs, bound, margin)], one at a time.

    Same rows, order and Python-float arithmetic as growth.growth_certificate
    documents; the caller rejects the zero matrix.  Entry h[i,k] of
    H = T L^T (0-based) is (d_i l[k,i] + e_(i-1) l[k,i-1]) + e_i l[k,i+1],
    summed in that order over the terms that exist, with l[k,k] = 1.
    """
    m = max_abs(a)
    n = f.n
    d = f.T.diag.tolist()
    e = f.T.offdiag.tolist()
    strict = f.L.strict.tolist()
    rows = []

    def add(label, lhs, bound):
        lhs = abs(lhs / m)
        rows.append((label, lhs, bound, bound - lhs))

    def l(k, i):
        return 1.0 if k == i else strict[k][i]

    def h(i, k):
        acc = d[i] * l(k, i)
        if i > 0:
            acc += e[i - 1] * l(k, i - 1)
        if i < n - 1:
            acc += e[i] * l(k, i + 1)
        return acc

    add("t[1,1]", d[0], 1.0)
    if n >= 2:
        add("t[2,1]", e[0], 1.0)
        add("t[2,2]", d[1], 1.0)

    if n >= 3:
        for i in range(3, n + 1):
            add(f"h[1,{i}]", h(0, i - 1), 1.0)
        for j in range(2, n + 1):
            for i in range(j + 1, n + 1):
                add(f"h[{j},{i}]", h(j - 1, i - 1), 2.0 ** (j - 2))
        add(f"h[{n},{n}]", h(n - 1, n - 1), 2.0 ** (n - 2))
        for i in range(3, n + 1):
            add(f"t[{i},{i - 1}]", e[i - 2], 2.0 ** (i - 2))
            add(f"t[{i},{i}]", d[i - 1], 2.0 ** (i - 1))
    return rows


def lp_vertex_minimum(prog, points=1 << 15):
    """Brute-force LP oracle: minimum objective over basic feasible points.

    Every row is two-sided, lo <= a x <= up.  A basic point makes d =
    len(prog.objective) constraints tight; a set that holds both sides of
    one row is singular, so each d-subset of rows with a nonsingular matrix
    is solved once, for its 2^d lo/up side choices as one batched
    right-hand side, in blocks of about ``points`` basic points.  The
    minimum of the objective over the feasible points (G x <= h, with both
    sides of every row as rows of G) is the LP optimum.
    """
    a = np.array([row.coeffs for row in prog.rows], dtype=float)
    lo = np.array([row.lo for row in prog.rows], dtype=float)
    up = np.array([row.up for row in prog.rows], dtype=float)
    assert np.isfinite(lo).all() and np.isfinite(up).all(), "rows must be two-sided"
    g = np.vstack((a, -a))
    h = np.concatenate((up, -lo))
    m, d = a.shape
    c = np.asarray(prog.objective)
    at_up = np.array(list(itertools.product((False, True), repeat=d)))  # (2^d, d) side choices

    best = np.inf
    combos = itertools.combinations(range(m), d)
    while block := list(itertools.islice(combos, max(1, points >> d))):
        idx = np.array(block)
        gs = a[idx]
        ok = np.abs(np.linalg.det(gs)) > 1e-8
        if not ok.any():
            continue
        idx = idx[ok]
        # column k of subset b's right-hand side is side choice k of its rows
        rhs = np.where(at_up.T, up[idx][..., None], lo[idx][..., None])
        x = np.linalg.solve(gs[ok], rhs).transpose(0, 2, 1).reshape(-1, d)
        feas = ((x @ g.T) <= h + 1e-9).all(axis=1)
        if feas.any():
            best = min(best, float((x[feas] @ c).min()))
    return best


_RC_TOL = 1e-12  # reduced-cost / pivot-column noise floor


class SimplexResult(NamedTuple):
    status: str  # "optimal" | "infeasible"
    objective_value: float
    point: np.ndarray
    iterations: int


def _one_sided(prog: DeltaProgram):
    """Split two-sided rows into (coeffs, rhs, sense) with sense in {<=, >=}."""
    out = []
    for row in prog.rows:
        a = np.asarray(row.coeffs, dtype=float)
        if np.isfinite(row.up):
            out.append((a, row.up, "<="))
        if np.isfinite(row.lo):
            out.append((a, row.lo, ">="))
    return out


def _bland_simplex(tab: np.ndarray, basis: List[int], ncols: int) -> int:
    """Run simplex pivots in place until optimal; returns the pivot count.

    Entering: smallest column index with negative reduced cost (Bland).
    Leaving: minimum ratio, ties broken by smallest basic-variable index.
    """
    m = tab.shape[0] - 1
    iters = 0
    while True:
        rc = tab[-1, :ncols]
        candidates = np.flatnonzero(rc < -_RC_TOL)
        if candidates.size == 0:
            return iters
        col = int(candidates[0])
        ratios = []
        for i in range(m):
            a = tab[i, col]
            if a > _RC_TOL:
                ratios.append((tab[i, -1] / a, basis[i], i))
        if not ratios:
            raise RuntimeError("LP is unbounded; delta programs are box-bounded")
        _, _, row = min(ratios)
        piv = tab[row, col]
        tab[row, :] /= piv
        for i in range(m + 1):
            if i != row and tab[i, col] != 0.0:
                tab[i, :] -= tab[i, col] * tab[row, :]
        basis[row] = col
        iters += 1


def lp_simplex(prog: DeltaProgram) -> SimplexResult:
    """Two-phase simplex with Bland's anti-cycling rule, in floats.

    Variables are treated as nonnegative, which every delta program
    guarantees through its box rows.  Deterministic for a fixed program.
    Rounding makes it wrong on delta programs past n = 20.
    """
    nv = len(prog.objective)
    sided = _one_sided(prog)
    m = len(sided)
    nslack = m

    # Equality form: original vars | one slack per row | artificials as needed.
    a_eq = np.zeros((m, nv + nslack))
    b_eq = np.zeros(m)
    for i, (a, rhs, sense) in enumerate(sided):
        a_eq[i, :nv] = a
        a_eq[i, nv + i] = 1.0 if sense == "<=" else -1.0
        b_eq[i] = rhs
        if rhs < 0.0:
            a_eq[i, :] *= -1.0
            b_eq[i] *= -1.0

    need_art = [i for i in range(m) if a_eq[i, nv + i] != 1.0]
    nart = len(need_art)
    ncols = nv + nslack + nart

    tab = np.zeros((m + 1, ncols + 1))
    tab[:m, : nv + nslack] = a_eq
    tab[:m, -1] = b_eq
    basis: List[int] = []
    art_of_row = {row: nv + nslack + k for k, row in enumerate(need_art)}
    for i in range(m):
        if i in art_of_row:
            tab[i, art_of_row[i]] = 1.0
            basis.append(art_of_row[i])
        else:
            basis.append(nv + i)

    iterations = 0
    if nart:
        # Phase 1: minimize the artificial sum, priced out against the basis.
        tab[-1, :] = 0.0
        tab[-1, nv + nslack : ncols] = 1.0
        for i, bv in enumerate(basis):
            if bv >= nv + nslack:
                tab[-1, :] -= tab[i, :]
        iterations += _bland_simplex(tab, basis, ncols)
        if tab[-1, -1] < -FEASIBILITY_TOL:
            return SimplexResult("infeasible", float("nan"), np.full(nv, np.nan), iterations)
        # Pivot leftover artificials out of the basis; drop redundant rows.
        keep = []
        for i in range(m):
            if basis[i] >= nv + nslack:
                nonzero = np.flatnonzero(np.abs(tab[i, : nv + nslack]) > _RC_TOL)
                if nonzero.size == 0:
                    continue  # redundant row
                col = int(nonzero[0])
                piv = tab[i, col]
                tab[i, :] /= piv
                for k in range(tab.shape[0]):
                    if k != i and tab[k, col] != 0.0:
                        tab[k, :] -= tab[k, col] * tab[i, :]
                basis[i] = col
            keep.append(i)
        if len(keep) != m:
            tab = np.vstack([tab[keep, :], tab[-1:, :]])
            basis = [basis[i] for i in keep]
            m = len(keep)

    # Phase 2 on the original costs; artificial columns excluded from pricing.
    tab[-1, :] = 0.0
    tab[-1, :nv] = prog.objective
    for i, bv in enumerate(basis):
        if bv < nv and tab[-1, bv] != 0.0:
            tab[-1, :] -= tab[-1, bv] * tab[i, :]
    iterations += _bland_simplex(tab, basis, nv + nslack)

    x = np.zeros(nv)
    for i, bv in enumerate(basis):
        if bv < nv:
            x[bv] = tab[i, -1]
    return SimplexResult("optimal", float(np.dot(prog.objective, x)), x, iterations)


def pattern_search_scalar(x0, cfg, iu):
    """Per-probe reference for one restart of search.maximize_growth.

    Scores every probe on its own through evaluate_candidate (factorize), in
    coordinate-major order with +step before -step, keeping the best probe
    under a strict comparison.  Returns (best vector, best value, evaluations).
    """
    def sym(v):
        m = np.zeros((cfg.n, cfg.n))
        m[iu] = v
        m[iu[1], iu[0]] = v
        return SymmetricMatrix(m)

    d = x0.shape[0]
    x = x0.copy()
    best = evaluate_candidate(sym(x))
    evals = 1
    step = search.INITIAL_STEP

    for _ in range(cfg.max_iters):
        if step < search.MIN_STEP:
            break
        probe_best = best
        probe_at = -1
        probe_val = 0.0
        for k in range(d):
            for sgn in (1.0, -1.0):
                cand = min(1.0, max(-1.0, x[k] + sgn * step))
                if cand == x[k]:
                    continue
                old = x[k]
                x[k] = cand
                val = evaluate_candidate(sym(x))
                x[k] = old
                evals += 1
                if val > probe_best:
                    probe_best = val
                    probe_at = k
                    probe_val = cand
        if probe_at >= 0:
            x[probe_at] = probe_val
            best = probe_best
        else:
            step *= search.SHRINK
    return x, best, evals


def maximize_growth_scalar(cfg) -> SearchOutcome:
    """Reference for search.maximize_growth: the restarts one after another.

    Warm starts first, then seeded random starts, each run by
    pattern_search_scalar; a later restart replaces the best only when it is
    strictly larger, so ties go to the lowest restart index.
    """
    n = cfg.n
    iu = np.triu_indices(n)
    best_vec, best_val, evaluations, per_restart = None, -np.inf, 0, []
    for k in range(max(cfg.restarts, len(cfg.warm_starts))):
        if k < len(cfg.warm_starts):
            x0 = cfg.warm_starts[k].entries[iu]
        else:
            x0 = np.random.default_rng([cfg.seed, k]).uniform(-1.0, 1.0, iu[0].shape[0])
        x, val, evals = pattern_search_scalar(x0, cfg, iu)
        evaluations += evals
        per_restart.append(float(val))
        if val > best_val:
            best_vec, best_val = x, val
    m = np.zeros((n, n))
    m[iu] = best_vec
    m[iu[1], iu[0]] = best_vec
    return SearchOutcome(SymmetricMatrix(m), float(best_val), evaluations, per_restart)
