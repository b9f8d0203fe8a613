"""Shared test helpers: random inputs and independent oracles.

The oracles here deliberately avoid the code paths they check: the product
oracle is a pure-Python triple loop, the tridiagonal oracle is a dense
solve, and the LP oracle enumerates basic points of the inequality system.
The Aasen oracle factorize_scalar is the column sweep on one matrix, swapping
rows of a working copy; it is independent of the stacked indexing of
aasen._sweep and shares only the pivot test, aasen._pivot_offset.
pattern_search_scalar is independent of the batched search loop only: it
still scores each probe through the stacked sweep.  certificate_rows_scalar
builds the growth certificate one labelled row at a time, sharing only the
dense H = T L^T product with growth.growth_certificate.
"""
import itertools

import numpy as np

from ltlt.aasen import _pivot_offset
from ltlt.matcore import SymmetricMatrix, max_abs
from ltlt.search import evaluate_candidate


def rand_sym(rng, n, scale=1.0) -> SymmetricMatrix:
    m = rng.uniform(-scale, scale, (n, n))
    return SymmetricMatrix.from_full((m + m.T) / 2.0)


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
    documents; the caller rejects the zero matrix.
    """
    m = max_abs(a)
    n = f.n
    diag = f.T.diag / m
    off = f.T.offdiag / m
    rows = []

    def add(label, lhs, bound):
        lhs = float(lhs)
        rows.append((label, lhs, bound, bound - lhs))

    add("t[1,1]", abs(diag[0]), 1.0)
    if n >= 2:
        add("t[2,1]", abs(off[0]), 1.0)
        add("t[2,2]", abs(diag[1]), 1.0)

    if n >= 3:
        lf = f.L.full()
        h = (f.T.full() @ lf.T) / m

        for i in range(3, n + 1):
            add(f"h[1,{i}]", abs(h[0, i - 1]), 1.0)
        for j in range(2, n + 1):
            for i in range(j + 1, n + 1):
                add(f"h[{j},{i}]", abs(h[j - 1, i - 1]), 2.0 ** (j - 2))
        add(f"h[{n},{n}]", abs(h[n - 1, n - 1]), 2.0 ** (n - 2))
        for i in range(3, n + 1):
            add(f"t[{i},{i - 1}]", abs(off[i - 2]), 2.0 ** (i - 2))
            add(f"t[{i},{i}]", abs(diag[i - 1]), 2.0 ** (i - 1))
    return rows


def lp_vertex_minimum(prog, chunk=200_000):
    """Brute-force LP oracle: minimum objective over basic feasible points.

    Every subset of num_vars constraint rows (written as G x <= h) with a
    nonsingular normal matrix defines a basic point; the minimum of the
    objective over the feasible ones is the LP optimum.
    """
    g_rows, h_rows = [], []
    for row in prog.rows:
        a = np.asarray(row.coeffs)
        if np.isfinite(row.up):
            g_rows.append(a)
            h_rows.append(row.up)
        if np.isfinite(row.lo):
            g_rows.append(-a)
            h_rows.append(-row.lo)
    g = np.array(g_rows)
    h = np.array(h_rows)
    m, d = g.shape
    c = np.asarray(prog.objective)

    best = np.inf
    combos = itertools.combinations(range(m), d)
    while True:
        block = list(itertools.islice(combos, chunk))
        if not block:
            break
        idx = np.array(block)
        gs = g[idx]
        ok = np.abs(np.linalg.det(gs)) > 1e-8
        if not ok.any():
            continue
        x = np.linalg.solve(gs[ok], h[idx[ok]][..., None])[..., 0]
        feas = ((x @ g.T) <= h + 1e-9).all(axis=1)
        if feas.any():
            best = min(best, float((x[feas] @ c).min()))
    return best


def pattern_search_scalar(x0, cfg, iu):
    """Per-probe reference for search._pattern_search: one restart.

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
    step = cfg.initial_step

    for _ in range(cfg.max_iters):
        if step < cfg.min_step:
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
            step *= cfg.shrink
    return x, best, evals
