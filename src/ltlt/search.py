"""Derivative-free maximization of the growth factor over [-1, 1] entries.

Coordinate pattern search on the d = n(n+1)/2 free entries of a symmetric
matrix: probe +/- step along every coordinate, accept the best improving
probe, halve the step when none improves.  The restarts run in lockstep: each
round scores the probes of every restart still searching as one stack, within
STACK_BUDGET doubles, with the Aasen sweep that factorize() runs on a stack of
one, so every value is the one evaluate_candidate() gives.  The first round
also scores the starts: its stack holds each start as the probe that stays
put, so no kernel call scores them on their own.  The outcome is the argmax
over restarts, ties going to the lowest restart index.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import List, Tuple

import numpy as np

from .aasen import _stacked_growth, factorize
from .growth import growth_factor
from .matcore import SymmetricMatrix, max_abs

# First probe distance, its factor after a round without improvement, and the
# distance below which a restart stops.
INITIAL_STEP, SHRINK, MIN_STEP = 0.25, 0.5, 1e-6

# Most doubles in one kernel stack (matrices times n^2) and in each (restarts,
# 2d + 1) round array of a lockstep group; at least one matrix and one restart.
STACK_BUDGET = 1 << 21


@dataclass(frozen=True)
class SearchConfig:
    n: int
    restarts: int = 64
    max_iters: int = 2000
    seed: int = 0
    warm_starts: Tuple[SymmetricMatrix, ...] = ()

    def __post_init__(self):
        if self.restarts < 1:
            raise ValueError("restarts must be >= 1")
        if self.max_iters < 1:
            raise ValueError(f"max_iters must be >= 1, got {self.max_iters}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        object.__setattr__(self, "warm_starts", tuple(self.warm_starts))
        for w in self.warm_starts:
            if w.n != self.n:
                raise ValueError(f"warm start has dimension {w.n}, expected {self.n}")
            if max_abs(w) > 1.0:
                raise ValueError("warm start entries must lie in [-1, 1]")
        if self.n < 3:
            raise ValueError("search requires n >= 3")


@dataclass(frozen=True)
class SearchOutcome:
    best_matrix: SymmetricMatrix
    best_growth: float
    evaluations: int
    per_restart_best: List[float]


def evaluate_candidate(m: SymmetricMatrix) -> float:
    """Growth factor of the candidate; the zero matrix scores 0 (worst)."""
    if max_abs(m) == 0.0:
        return 0.0
    return growth_factor(m, factorize(m))


@lru_cache(maxsize=None)
def _triangle(n: int):
    """(iu, sym): the upper-triangle indices and, for each of the n*n entries
    of a symmetric matrix, the index of its value in the (d,) vector x[iu]."""
    iu = np.triu_indices(n)
    sym = np.empty((n, n), np.intp)
    sym[iu] = sym[iu[1], iu[0]] = np.arange(iu[0].shape[0])
    for a in (*iu, sym):
        a.setflags(write=False)  # shared by every search at this n
    return iu, sym.reshape(-1)


def _score(x, owner, at, cand, n: int) -> np.ndarray:
    """Growth of each probe: row owner[k] of x with entry at[k] set to cand[k]."""
    size = max(1, STACK_BUDGET // (n * n))
    sym = _triangle(n)[1]
    vals = np.empty(owner.shape[0])
    for s in range(0, owner.shape[0], size):
        probes = x[owner[s : s + size]]
        probes[np.arange(probes.shape[0]), at[s : s + size]] = cand[s : s + size]
        vals[s : s + size] = _stacked_growth(probes[:, sym].reshape(-1, n, n))
    return vals


def _search_group(x: np.ndarray, max_iters: int, n: int) -> Tuple[np.ndarray, int]:
    """Search from the (G, d) starts x in lockstep, leaving the best points in x.

    Returns (best values, evaluations).  The first round scores the starts
    too, as its column 0.  A restart takes its first probe (coordinates in
    order, +step before -step) that attains its maximum, if that beats its
    value.  max_iters must be at least 1."""
    g, d = x.shape
    rows = np.arange(g)
    best, evals = np.full(g, -np.inf), 0  # -inf until round 1 scores the starts
    step = np.full(g, INITIAL_STEP)
    # column 0 stays put (x + -0.0 is x, bit for bit); 2k+1, 2k+2 probe x[k] +/- step
    coord = np.arange(-1, 2 * d) // 2
    sign = np.array([-0.0] + [1.0, -1.0] * d)
    vals = np.empty((g, 2 * d + 1))

    for it in range(max_iters):
        xx = x[:, coord]
        cand = np.minimum(np.maximum(xx + step[:, None] * sign, -1.0), 1.0)
        # a finished restart keeps no probes, so it never improves again;
        # column 0 equals xx, so only the first round, which scores the
        # starts, keeps it
        keep = (cand != xx) & (step >= MIN_STEP)[:, None]
        if it == 0:
            keep[:, 0] = True
        owner, pos = keep.nonzero()
        if not owner.size:
            break
        vals.fill(-np.inf)
        vals[:, 0] = best
        vals[keep] = _score(x, owner, coord[pos], cand[keep], n)
        evals += owner.size
        # the first maximum wins, so a probe that only ties stays put
        i = vals.argmax(axis=1)
        best = vals[rows, i]
        x[rows, coord[i]] = cand[rows, i]
        np.multiply(step, SHRINK, out=step, where=i == 0)
    return best, evals


def maximize_growth(config: SearchConfig) -> SearchOutcome:
    """Run every warm start, then seeded random starts up to config.restarts in all."""
    n, (iu, sym) = config.n, _triangle(config.n)
    d = iu[0].shape[0]
    warm = [w.entries[iu] for w in config.warm_starts]
    num_starts = max(config.restarts, len(warm))
    group = max(1, STACK_BUDGET // (2 * d + 1))
    per_restart, evaluations, top = [], 0, None
    for g0 in range(0, num_starts, group):
        x = np.array([
            warm[k] if k < len(warm)
            else np.random.default_rng([config.seed, k]).uniform(-1.0, 1.0, d)
            for k in range(g0, min(g0 + group, num_starts))
        ])
        best, evals = _search_group(x, config.max_iters, n)
        per_restart += best.tolist()
        evaluations += evals
        i = int(best.argmax())
        if top is None or best[i] > top[0]:  # a tie keeps the earlier restart
            top = best[i], x[i]

    best_matrix = SymmetricMatrix(top[1][sym].reshape(n, n))
    return SearchOutcome(best_matrix, float(top[0]), evaluations, per_restart)
