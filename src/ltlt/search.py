"""Derivative-free maximization of the growth factor over [-1, 1] entries.

Coordinate pattern search on the n(n+1)/2 free entries of a symmetric
matrix: probe +/- step along every coordinate, accept the best improving
probe, halve the step when none improves.  Each sweep scores all of its
probes as one batch through a stacked form of the factorization; the values,
and so every outcome, are identical to scoring each probe on its own with
evaluate_candidate().  Restarts are independent, so the outcome is the
argmax over restarts with ties going to the lowest restart index; identical
configurations always reproduce the same outcome.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Tuple

import numpy as np

from .aasen import _stacked_growth, factorize
from .growth import growth_factor
from .matcore import SymmetricMatrix, max_abs


@dataclass(frozen=True)
class SearchConfig:
    n: int
    restarts: int = 64
    max_iters: int = 2000
    initial_step: float = 0.25
    shrink: float = 0.5
    min_step: float = 1e-6
    seed: int = 0
    warm_starts: Tuple[SymmetricMatrix, ...] = ()

    def __post_init__(self):
        if self.restarts < 1:
            raise ValueError("restarts must be >= 1")
        if not (0.0 < self.min_step < self.initial_step):
            raise ValueError("need 0 < min_step < initial_step")
        if not (0.0 < self.shrink < 1.0):
            raise ValueError("shrink must lie in (0, 1)")
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
    per_restart_best: List[float] = field(default_factory=list)


def evaluate_candidate(m: SymmetricMatrix) -> float:
    """Growth factor of the candidate; the zero matrix scores 0 (worst)."""
    if max_abs(m) == 0.0:
        return 0.0
    return growth_factor(m, factorize(m))


def _sym_stack(v: np.ndarray, n: int, iu) -> np.ndarray:
    """(P, n, n) symmetric matrices from the (P, d) upper-triangle vectors v."""
    m = np.zeros((v.shape[0], n, n))
    m[:, iu[0], iu[1]] = v
    m[:, iu[1], iu[0]] = v
    return m


def _pattern_search(x0: np.ndarray, cfg: SearchConfig, iu) -> Tuple[np.ndarray, float, int]:
    """One restart; returns (best vector, best value, evaluations used).

    A sweep scores all of its probes as one stack.  The accepted probe is the
    first one, in coordinate-major order with +step before -step, that
    attains the sweep's maximum, and only when that maximum beats the current
    value: the probe a sequential scan with strict comparison would keep.
    """
    n, d = cfg.n, x0.shape[0]
    x = x0.copy()
    best = float(_stacked_growth(_sym_stack(x[None, :], n, iu))[0])
    evals = 1
    step = cfg.initial_step
    coord = np.repeat(np.arange(d), 2)

    for _ in range(cfg.max_iters):
        if step < cfg.min_step:
            break
        cand = np.clip(np.stack([x + step, x - step], axis=1).ravel(), -1.0, 1.0)
        keep = cand != x[coord]
        at, cand = coord[keep], cand[keep]
        probes = np.tile(x, (at.shape[0], 1))
        probes[np.arange(at.shape[0]), at] = cand
        vals = _stacked_growth(_sym_stack(probes, n, iu))
        evals += vals.shape[0]
        i = int(np.argmax(vals)) if vals.shape[0] else -1
        if i >= 0 and vals[i] > best:
            x[at[i]] = cand[i]
            best = float(vals[i])
        else:
            step *= cfg.shrink
    return x, best, evals


def maximize_growth(config: SearchConfig) -> SearchOutcome:
    """Run all restarts: warm starts first, then seeded random matrices.

    Random starts fill up to config.restarts total; every warm start always
    runs even when there are more warm starts than restarts.
    """
    if config.n < 3:
        raise ValueError("search requires n >= 3")
    n = config.n
    iu = np.triu_indices(n)
    num_starts = max(config.restarts, len(config.warm_starts))

    best_vec = None
    best_val = -np.inf
    evaluations = 0
    per_restart: List[float] = []

    for k in range(num_starts):
        if k < len(config.warm_starts):
            x0 = config.warm_starts[k].entries[iu]
        else:
            rng = np.random.default_rng([config.seed, k])
            x0 = rng.uniform(-1.0, 1.0, iu[0].shape[0])
        x, val, evals = _pattern_search(x0, config, iu)
        evaluations += evals
        per_restart.append(val)
        if val > best_val:
            best_val = val
            best_vec = x

    return SearchOutcome(
        best_matrix=SymmetricMatrix(_sym_stack(best_vec[None, :], n, iu)[0]),
        best_growth=float(best_val),
        evaluations=evaluations,
        per_restart_best=per_restart,
    )
