"""The one Aasen sweep and the batched search against their references.

factorize() and the stacked growth kernel both run aasen._sweep; both are
compared with the scalar oracle factorize_scalar, which swaps rows of one
working matrix instead of indexing a stack.  The batched search is compared
with maximize_growth_scalar, which runs the restarts one after another and
scores each probe on its own.  All comparisons are bitwise: the same
floating-point operations run per item, so no tolerance applies.
"""
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from _helpers import factorize_scalar, maximize_growth_scalar
from ltlt import search
from ltlt.aasen import AasenFactors, _stacked_growth, factorize
from ltlt.extremal import extremal_matrix
from ltlt.growth import growth_factor
from ltlt.matcore import (
    PermutationVector,
    SymmetricMatrix,
    SymmetricTridiagonal,
    UnitLowerTriangular,
)
from ltlt.search import SearchConfig, maximize_growth


def _sym(m):
    return np.tril(m) + np.tril(m, -1).T


def _assert_matches_reference(stack):
    stack = np.asarray(stack, dtype=float)
    want = []
    for m in stack:
        perm, l_strict, diag, offdiag = factorize_scalar(m)
        ref = AasenFactors(
            PermutationVector(perm),
            UnitLowerTriangular(l_strict),
            SymmetricTridiagonal(diag, offdiag),
        )
        a = SymmetricMatrix(m)
        f = factorize(a)
        for got, exp in [(f.p.p, ref.p.p), (f.L.strict, ref.L.strict),
                         (f.T.diag, ref.T.diag), (f.T.offdiag, ref.T.offdiag)]:
            assert got.dtype == exp.dtype and got.tobytes() == exp.tobytes()
        want.append(growth_factor(a, ref) if np.any(m) else 0.0)
    assert _stacked_growth(stack).tobytes() == np.array(want).tobytes()


@pytest.mark.parametrize("n", [*range(1, 10), 50, 200])
def test_kernel_matches_factorize_random(n):
    rng = np.random.default_rng([50, n])
    _assert_matches_reference([_sym(rng.uniform(-1.0, 1.0, (n, n))) for _ in range(40)])


def test_kernel_bits_do_not_depend_on_the_stack_position_under_generic_blas():
    # OpenBLAS's generic x86 (Katmai) ddot and gemv kernels take an
    # alignment-dependent path: with a per-item operand stride that is not a
    # multiple of 16 bytes, the odd items of an odd-n stack differed from
    # factorize.  Other BLAS libraries ignore the variable, and the child
    # still checks every item against the oracle.
    env = dict(os.environ, OPENBLAS_CORETYPE="Prescott", OPENBLAS_NUM_THREADS="1")
    code = (
        f"import sys; sys.path.insert(0, {str(Path(__file__).parent)!r})\n"
        "import numpy as np\n"
        "from test_batch import _assert_matches_reference, _sym\n"
        "rng = np.random.default_rng([50, 9])\n"
        "_assert_matches_reference([_sym(rng.uniform(-1.0, 1.0, (9, 9))) for _ in range(40)])\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120
    )
    assert proc.returncode == 0, proc.stderr[-2000:]


@pytest.mark.parametrize("n", [*range(1, 10), 50, 200])
def test_kernel_matches_factorize_exact_ties(n):
    # quarter-quantized entries put exact ties (and zero columns) in the
    # pivot search, where the tie rule decides the row
    rng = np.random.default_rng([51, n])
    stack = [_sym(np.round(4.0 * rng.uniform(-1.0, 1.0, (n, n))) / 4.0) for _ in range(40)]
    stack.append(np.zeros((n, n)))
    stack.append(np.eye(n))
    _assert_matches_reference(stack)


@pytest.mark.parametrize("quantized", [False, True])
def test_kernel_matches_factorize_n500(quantized):
    # one matrix at the benchmark's largest size, random or quarter-quantized
    m = np.random.default_rng([52, quantized]).uniform(-1.0, 1.0, (500, 500))
    _assert_matches_reference([_sym(np.round(4.0 * m) / 4.0 if quantized else m)])


def test_kernel_matches_factorize_large_stack():
    # B = 1280 at n = 4 is one round's stack of `ltlt search --n 4 --restarts 64`
    # (64 restarts x 20 probes); half the items are quarter-quantized
    rng = np.random.default_rng(53)
    stack = rng.uniform(-1.0, 1.0, (1280, 4, 4))
    stack[::2] = np.round(4.0 * stack[::2]) / 4.0
    _assert_matches_reference([_sym(m) for m in stack])


@pytest.mark.parametrize("n,deltas", [
    (4, (0.01, 0.05, 0.5, 1.0, 2.0)),
    (5, (0.01, 0.1, 0.5, 1.0)),
    (6, (0.4, 0.5, 0.6, 0.8)),
])
def test_kernel_matches_factorize_extremal(n, deltas):
    _assert_matches_reference([extremal_matrix(n, d).A.entries for d in deltas])


def _assert_same_outcome(got, want):
    assert got.best_growth == want.best_growth
    assert got.evaluations == want.evaluations
    assert got.per_restart_best == want.per_restart_best
    assert np.array_equal(
        got.best_matrix.entries.view(np.int64), want.best_matrix.entries.view(np.int64)
    )


@pytest.mark.parametrize("n,seed", [(3, 0), (4, 1), (5, 2), (6, 3), (7, 4)])
def test_search_matches_scalar_oracle(n, seed):
    cfg = SearchConfig(n=n, restarts=1, seed=seed, max_iters=12)
    _assert_same_outcome(maximize_growth(cfg), maximize_growth_scalar(cfg))


def test_search_matches_scalar_oracle_restarts():
    cfg = SearchConfig(n=4, restarts=3, seed=7, max_iters=40)
    _assert_same_outcome(maximize_growth(cfg), maximize_growth_scalar(cfg))


@pytest.mark.parametrize("n,delta", [(4, 0.05), (5, 0.01), (6, 0.4)])
def test_search_matches_scalar_oracle_warm(n, delta):
    warm = (extremal_matrix(n, delta).A,)
    cfg = SearchConfig(n=n, restarts=2, seed=9, max_iters=15, warm_starts=warm)
    _assert_same_outcome(maximize_growth(cfg), maximize_growth_scalar(cfg))


@pytest.mark.parametrize(
    "start", [np.zeros((4, 4)), np.ones((4, 4)), np.eye(4), np.full((4, 4), -0.0)]
)
def test_search_matches_scalar_oracle_tied_probes(start):
    # from these starts many probes of a sweep score exactly the sweep's
    # maximum; the first of them in scan order must win
    cfg = SearchConfig(n=4, restarts=1, max_iters=20, warm_starts=(SymmetricMatrix(start),))
    _assert_same_outcome(maximize_growth(cfg), maximize_growth_scalar(cfg))


def test_search_matches_scalar_oracle_restarts_finish_apart():
    # no probe improves on the extremal start, so it stops after the rounds
    # that shrink its step below the minimum, while the random restarts of
    # the same lockstep group keep improving for more rounds
    warm = extremal_matrix(4, 0.05).A
    cfg = SearchConfig(n=4, restarts=3, seed=5, max_iters=200, warm_starts=(warm,))
    got = maximize_growth(cfg)
    _assert_same_outcome(got, maximize_growth_scalar(cfg))
    assert got.per_restart_best[0] == search.evaluate_candidate(warm)


def test_search_stacks_stay_within_budget(monkeypatch):
    # a budget of a few matrices splits every round into several kernel
    # calls and the restarts into several lockstep groups
    n, budget = 4, 48
    cfg = SearchConfig(n=n, restarts=5, seed=11, max_iters=30)
    want = maximize_growth_scalar(cfg)
    sizes, groups = [], []

    def kernel(a):
        sizes.append(a.shape[0])
        return _stacked_growth(a)

    def group(x, *args):
        groups.append(x.shape[0])
        return search_group(x, *args)

    search_group = search._search_group
    monkeypatch.setattr(search, "STACK_BUDGET", budget)
    monkeypatch.setattr(search, "_stacked_growth", kernel)
    monkeypatch.setattr(search, "_search_group", group)
    _assert_same_outcome(maximize_growth(cfg), want)
    assert groups == [2, 2, 1]
    assert max(sizes) * n * n <= budget
    assert len(sizes) > 3 * cfg.max_iters
