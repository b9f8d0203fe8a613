"""Derivative-free maximization of the growth factor over [-1, 1] entries.

Coordinate pattern search on the d = n(n+1)/2 free entries of a symmetric
matrix: probe +/- step along every coordinate, accept the best improving
probe, halve the step when none improves.  The restarts run in lockstep
groups (_search_group): each round scores the point and the 2d probes of
every restart of the group still searching as one stack, with the Aasen
sweep that factorize() runs on a stack of one, so every value is the one
evaluate_candidate() gives, and a round's stack shape depends only on how
many restarts are live.  The outcome is the argmax over restarts, ties
going to the lowest restart index.

A group holds as many restarts as fit one round's stack in STACK_BUDGET
doubles, so every round is one _stacked_growth() call, through a sweep plan
of its size (aasen._SweepPlan: the sweep's buffers and per-step views,
built once).  A group keeps its plan from round to round and builds a new
one only when a restart finishes, so a one-restart search builds one plan.
A plan ends with its group's _search_group() call, so searches in different
threads share nothing.  One restart's round must fit the budget, which
bounds n at 37.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import List, Tuple

import numpy as np

from . import DomainError
from .aasen import _SweepPlan, factorize
from .growth import growth_factor
from .matcore import SymmetricMatrix, max_abs

# First probe distance, its factor after a round without improvement, and the
# distance below which a restart stops.
INITIAL_STEP, SHRINK, MIN_STEP = 0.25, 0.5, 1e-6

# Most doubles in one kernel stack: a lockstep group of restarts whose rounds
# of 2d + 1 matrices of n^2 doubles fit it.  SearchConfig admits the n whose
# one-restart round fits.
STACK_BUDGET = 1 << 21


@dataclass(frozen=True)
class SearchConfig:
    n: int
    restarts: int = 64
    max_iters: int = 2000
    seed: int = 0
    warm_starts: Tuple[SymmetricMatrix, ...] = ()

    def __post_init__(self):
        top = 2  # the largest n with (n(n+1) + 1) n^2 <= STACK_BUDGET
        while ((top + 1) * (top + 2) + 1) * (top + 1) ** 2 <= STACK_BUDGET:
            top += 1
        if not 3 <= self.n <= top:
            raise DomainError(f"search requires 3 <= n <= {top}, got {self.n}")
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


def _stacked_growth(a: np.ndarray, plan: _SweepPlan) -> np.ndarray:
    """Growth factors of a (B, n, n) stack of finite symmetric matrices, swept
    through plan, a _SweepPlan of its shape: each is evaluate_candidate()'s
    value, bit for bit, so the zero matrix scores 0."""
    b = a.shape[0]
    t = np.maximum.reduce(np.abs(plan.run(a)[1]), axis=1)
    m = np.maximum.reduce(np.abs(a.reshape(b, -1)), axis=1)
    return np.divide(t, m, out=np.zeros(b), where=m != 0.0)


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


def _search_group(x: np.ndarray, max_iters: int, n: int) -> Tuple[np.ndarray, int]:
    """Search from the (G, d) starts x in lockstep, leaving the best points in x.

    Returns (best values, evaluations).  Every round scores, in one stack,
    all 2d + 1 columns of each live restart (step >= MIN_STEP): column 0 is
    its point, so the first round scores the starts, and the others its
    +/- step probes, also those that clipping to [-1, 1] leaves equal to the
    point.  A re-scored point gets the bits of its value, and a clipped probe
    is the same matrix, so neither can beat it; evaluations count each start
    once and each probe that moved.  A restart takes its first probe
    (coordinates in order, +step before -step) that attains its maximum, if
    that beats its value.  max_iters must be at least 1."""
    g, d = x.shape
    best, step = np.empty(g), np.full(g, INITIAL_STEP)  # round 1 scores every start
    # column 0 stays put (x + -0.0 is x, bit for bit); 2k+1, 2k+2 probe x[k] +/- step
    coord = np.arange(-1, 2 * d) // 2
    sign = np.array([-0.0] + [1.0, -1.0] * d)
    sym, evals, plan = _triangle(n)[1], g, None
    live = np.arange(g)

    for _ in range(max_iters):
        xl = x[live]
        xx = xl[:, coord]
        cand = np.minimum(np.maximum(xx + step[live, None] * sign, -1.0), 1.0)
        evals += int(np.count_nonzero(cand != xx))
        # probe (r, c) is xl[r] with entry coord[c] set to cand[r, c]
        b = cand.size
        owner, col = np.divmod(np.arange(b), coord.shape[0])
        probes = xl[owner]
        probes[np.arange(b), coord[col]] = cand.reshape(-1)
        if plan is None or plan.shape[0] != b:  # a restart finished
            plan = _SweepPlan(n, b)
        vals = _stacked_growth(probes[:, sym].reshape(b, n, n), plan).reshape(cand.shape)
        # the first maximum wins, so a probe that only ties stays put
        i = vals.argmax(axis=1)
        rows = np.arange(live.shape[0])
        best[live] = vals[rows, i]
        x[live, coord[i]] = cand[rows, i]
        step[live[i == 0]] *= SHRINK
        live = live[step[live] >= MIN_STEP]
        if not live.size:
            break
    return best, evals


def maximize_growth(config: SearchConfig) -> SearchOutcome:
    """Run every warm start, then seeded random starts up to config.restarts in all."""
    n, (iu, sym) = config.n, _triangle(config.n)
    d = iu[0].shape[0]
    warm = [w.entries[iu] for w in config.warm_starts]
    num_starts = max(config.restarts, len(warm))
    group = STACK_BUDGET // ((2 * d + 1) * n * n)  # >= 1: SearchConfig checked n
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
