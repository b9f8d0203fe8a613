import sys
import threading

import numpy as np
import pytest

from _helpers import maximize_growth_scalar, rand_sym
from ltlt import DomainError, search
from ltlt.extremal import extremal_matrix
from ltlt.matcore import SymmetricMatrix, max_abs
from ltlt.search import (
    SearchConfig,
    evaluate_candidate,
    maximize_growth,
)


def test_evaluate_identity():
    assert evaluate_candidate(SymmetricMatrix(np.eye(4))) == 1.0


def test_evaluate_extremal_n5():
    val = evaluate_candidate(extremal_matrix(5, 0.01).A)
    assert abs(val - 15.88) <= 1e-9


def test_evaluate_zero_scores_zero():
    assert evaluate_candidate(SymmetricMatrix(np.zeros((3, 3)))) == 0.0


def test_evaluate_random_bounded():
    rng = np.random.default_rng(30)
    for _ in range(30):
        val = evaluate_candidate(rand_sym(rng, 6))
        assert 0.0 < val <= 2.0**5 + 1e-9


def test_config_validation():
    with pytest.raises(ValueError):
        SearchConfig(n=4, restarts=0)
    with pytest.raises(ValueError):
        SearchConfig(n=4, warm_starts=(SymmetricMatrix(np.eye(3)),))
    with pytest.raises(ValueError):
        SearchConfig(n=3, warm_starts=(SymmetricMatrix(2.0 * np.eye(3)),))
    with pytest.raises(ValueError, match=r"search requires 3 <= n <= 37, got 2$"):
        SearchConfig(n=2)


def test_config_domain_is_the_n_whose_round_fits_the_stack_budget(monkeypatch):
    # one restart's round stacks its point and 2d = n(n+1) probes of n^2
    # doubles, and must fit STACK_BUDGET
    top = max(n for n in range(3, 100) if (n * (n + 1) + 1) * n * n <= search.STACK_BUDGET)
    assert top == 37
    for n in (2, 38):
        with pytest.raises(DomainError, match=rf"search requires 3 <= n <= 37, got {n}$"):
            SearchConfig(n=n)
    assert SearchConfig(n=37).n == 37
    # the limit is read from the budget when the check runs
    monkeypatch.setattr(search, "STACK_BUDGET", 2 * 21 * 16)
    assert SearchConfig(n=4).n == 4
    with pytest.raises(DomainError, match=r"search requires 3 <= n <= 4, got 5$"):
        SearchConfig(n=5)


def test_config_rejects_negative_seed():
    with pytest.raises(ValueError, match=r"seed must be >= 0, got -1"):
        SearchConfig(n=4, seed=-1)


def _quick(n, **kw):
    kw.setdefault("restarts", 4)
    kw.setdefault("max_iters", 150)
    return SearchConfig(n=n, **kw)


def test_deterministic_outcome():
    cfg = _quick(4, seed=5)
    a = maximize_growth(cfg)
    b = maximize_growth(cfg)
    assert a.best_growth == b.best_growth
    assert a.evaluations == b.evaluations
    assert a.per_restart_best == b.per_restart_best
    assert np.array_equal(a.best_matrix.entries, b.best_matrix.entries)


def test_seed_changes_path():
    a = maximize_growth(_quick(4, seed=0))
    b = maximize_growth(_quick(4, seed=123))
    # different random starts: outcomes may coincide in value but the
    # evaluation trace essentially never does
    assert a.evaluations != b.evaluations or a.best_growth != b.best_growth


def test_warm_start_dominance():
    for n, d in [(4, 0.05), (5, 0.01), (6, 0.4)]:
        w = extremal_matrix(n, d).A
        start = evaluate_candidate(w)
        out = maximize_growth(SearchConfig(n=n, restarts=1, max_iters=150, warm_starts=(w,)))
        assert out.best_growth >= start - 1e-9
        assert out.per_restart_best[0] >= start - 1e-9


def test_all_warm_starts_run_even_past_restarts():
    warms = tuple(extremal_matrix(4, d).A for d in (0.05, 0.5, 1.0))
    out = maximize_growth(SearchConfig(n=4, restarts=1, max_iters=50, warm_starts=warms))
    assert len(out.per_restart_best) == 3
    for w, got in zip(warms, out.per_restart_best):
        assert got >= evaluate_candidate(w) - 1e-9


def test_outcome_invariants():
    out = maximize_growth(_quick(5, seed=2))
    assert max_abs(out.best_matrix) <= 1.0
    assert abs(out.best_growth - evaluate_candidate(out.best_matrix)) <= 1e-12
    bound = 2.0**4 + 1e-9
    assert out.best_growth <= bound
    assert all(v <= bound for v in out.per_restart_best)
    assert out.best_growth == max(out.per_restart_best)


def test_bound_respected_n3():
    out = maximize_growth(SearchConfig(n=3, restarts=16, max_iters=400, seed=0))
    assert 1.0 <= out.best_growth <= 4.0 + 1e-9


@pytest.mark.parametrize("max_iters", [0, -3])
def test_config_rejects_max_iters_below_one(max_iters):
    with pytest.raises(ValueError, match=rf"max_iters must be >= 1, got {max_iters}"):
        SearchConfig(n=4, restarts=2, max_iters=max_iters)


def _record_kernel_calls(monkeypatch):
    calls = []  # (stack, values) per kernel call

    def kernel(a, plan):
        vals = kernel_orig(a, plan)
        calls.append((a.copy(), vals.copy()))
        return vals

    kernel_orig = search._stacked_growth
    monkeypatch.setattr(search, "_stacked_growth", kernel)
    return calls


@pytest.mark.parametrize("max_iters", [1, 2, 5])
def test_one_kernel_call_per_round(monkeypatch, max_iters):
    # the first round scores the start too, so no call scores it on its own;
    # at n = 4 every round still has probes and fits one stack
    calls = _record_kernel_calls(monkeypatch)
    maximize_growth(SearchConfig(n=4, restarts=1, max_iters=max_iters))
    assert len(calls) == max_iters


def test_first_stack_scores_the_start(monkeypatch):
    # the stack holds the start and all 2d probes, also those that clipping
    # leaves equal to it; evaluations count the start once and only the
    # probes that moved
    warm = extremal_matrix(5, 0.01).A
    cfg = SearchConfig(n=5, restarts=1, max_iters=1, warm_starts=(warm,))
    calls = _record_kernel_calls(monkeypatch)
    out = maximize_growth(cfg)
    (stack, vals), = calls
    assert stack.shape == (2 * 15 + 1, 5, 5)
    assert stack[0].tobytes() == warm.entries.tobytes()
    assert vals[0].tobytes() == np.float64(evaluate_candidate(warm)).tobytes()
    assert out.evaluations == maximize_growth_scalar(cfg).evaluations


def test_clipped_probes_are_scored_but_not_counted(monkeypatch):
    # ten of the 15 entries of this start are +/-1, so each round has probes
    # that clipping leaves equal to the point: they are swept, tie
    # with column 0 bit for bit, and the outcome is the scalar oracle's.
    # Column 0 re-scores the point each round, with the bits of the best
    # value of the round before
    warm = extremal_matrix(5, 0.01).A
    cfg = SearchConfig(n=5, restarts=1, max_iters=8, warm_starts=(warm,))
    calls = _record_kernel_calls(monkeypatch)
    out = maximize_growth(cfg)
    want = maximize_growth_scalar(cfg)
    assert out.best_growth == want.best_growth
    assert out.evaluations == want.evaluations
    assert out.per_restart_best == want.per_restart_best
    assert out.best_matrix.entries.tobytes() == want.best_matrix.entries.tobytes()
    assert len(calls) == cfg.max_iters
    clipped = 0
    for r, (stack, vals) in enumerate(calls):
        assert stack.shape[0] == 2 * 15 + 1
        if r:
            assert vals[0].tobytes() == calls[r - 1][1].max().tobytes()
        same = [k for k in range(1, stack.shape[0]) if stack[k].tobytes() == stack[0].tobytes()]
        assert vals[same].tobytes() == np.full(len(same), vals[0]).tobytes()
        clipped += len(same)
    assert clipped > 0
    assert out.evaluations == 1 + sum(s.shape[0] - 1 for s, _ in calls) - clipped


def test_one_plan_per_stack_size(monkeypatch):
    # a lockstep group builds one plan per stack size, and the size changes
    # only when a restart finishes: this one-restart search stacks its
    # point and all 42 probes in each of its 12 rounds, through one plan
    calls, plans = _record_kernel_calls(monkeypatch), []

    class Plan(search._SweepPlan):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            plans.append(self)

    monkeypatch.setattr(search, "_SweepPlan", Plan)
    maximize_growth(SearchConfig(n=6, restarts=1, max_iters=12))
    assert [stack.shape[0] for stack, _ in calls] == [43] * 12
    assert [p.shape for p in plans] == [(43, 6, 6)]


def test_concurrent_searches_match_sequential_runs():
    # each search builds its own sweep plans: two searches whose rounds stack
    # 42 matrices while both restarts search, running at once in two threads,
    # must not share buffers
    cfgs = [SearchConfig(n=4, restarts=2, seed=s, max_iters=60) for s in (1, 3)]
    want = [maximize_growth(cfg) for cfg in cfgs]
    got = [[], []]
    start = threading.Barrier(2)

    def run(k):
        start.wait()
        for _ in range(5):
            got[k].append(maximize_growth(cfgs[k]))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads as often as the interpreter can
    try:
        threads = [threading.Thread(target=run, args=(k,)) for k in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
    finally:
        sys.setswitchinterval(interval)
    for runs, w in zip(got, want):
        assert len(runs) == 5
        for g in runs:
            assert g.best_growth == w.best_growth
            assert g.evaluations == w.evaluations
            assert g.per_restart_best == w.per_restart_best
            assert g.best_matrix.entries.tobytes() == w.best_matrix.entries.tobytes()
