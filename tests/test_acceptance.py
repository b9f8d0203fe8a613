"""Acceptance suite: one test per criterion, each prints a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Every tolerance is fixed here; nothing is calibrated at runtime.
"""
import json
import time

import jsonschema
import numpy as np

from _helpers import lp_vertex_minimum, rand_sym
from ltlt.aasen import SingularMatrixError, factorize, solve
from ltlt.cli import EXIT_DOMAIN, EXIT_OK, REPORT_SCHEMA, emit_matrix, main, parse_matrix
from ltlt.extremal import extremal_matrix
from ltlt.growth import growth_certificate, growth_factor
from ltlt.lpcert import build_program, min_delta, solve_lp
from ltlt.matcore import SymmetricMatrix, max_abs, residual
from ltlt.search import SearchConfig, evaluate_candidate, maximize_growth


def _grid(n, points=20):
    lo, up = {4: (0.0, 2.0), 5: (0.0, 1.0), 6: (0.4, 0.8)}[n]
    if n == 6:
        return np.linspace(lo, up, points)
    return np.linspace(lo, up, points + 1)[1:]


def _stamp(num, text, t0, limit):
    dt = time.time() - t0
    assert dt < limit, f"criterion {num} exceeded its {limit}s budget ({dt:.1f}s)"
    print(f"criterion {num:2d}: PASS ({dt:.2f}s) - {text}")


def test_criterion_01_example_growths():
    t0 = time.time()
    forms = {4: lambda d: 8 - 2 * d, 5: lambda d: 16 - 12 * d, 6: lambda d: 32 - 20 * d}
    for n in (4, 5, 6):
        for d in _grid(n):
            ex = extremal_matrix(n, float(d))
            got = growth_factor(ex.A, ex.ref)
            assert abs(got - forms[n](float(d))) <= 1e-10
    ex = extremal_matrix(6, 2.0 / 5.0)
    assert abs(growth_factor(ex.A, ex.ref) - 24.0) <= 1e-10
    _stamp(1, "example growths match 8-2d, 16-12d, 32-20d; n=6 at 2/5 gives 24", t0, 1.0)


def test_criterion_02_attainability():
    t0 = time.time()
    for n in (4, 5):
        ex = extremal_matrix(n, 1e-8)
        got = growth_factor(ex.A, ex.ref)
        assert abs(got - 2.0 ** (n - 1)) <= 1e-6
    _stamp(2, "growth at delta=1e-8 is within 1e-6 of 2^(n-1) for n=4,5", t0, 1.0)


def test_criterion_03_reference_fidelity():
    t0 = time.time()
    for n in (4, 5, 6):
        for d in _grid(n):
            ex = extremal_matrix(n, float(d))
            assert residual(ex.A, ex.ref.p, ex.ref.L, ex.ref.T) <= 1e-13
    _stamp(3, "assemble(ref.L, ref.T) matches A to 1e-13 across all windows", t0, 1.0)


def test_criterion_04_certificate_sweep():
    t0 = time.time()
    rng = np.random.default_rng(2024)
    for _ in range(1000):
        n = int(rng.integers(3, 13))
        a = rand_sym(rng, n)
        f = factorize(a)
        cert = growth_certificate(a, f)
        assert cert.all_pass
        assert cert.rho <= 2.0 ** (n - 1) + 1e-9
    _stamp(4, "1000 random certificates all pass; growth <= 2^(n-1)+1e-9", t0, 10.0)


def test_criterion_05_lp_dichotomy():
    t0 = time.time()
    for n in (3, 4, 5):
        assert abs(min_delta(n)) <= 1e-9
    computed = {}
    for n in range(6, 11):
        computed[n] = min_delta(n)
        assert computed[n] > 1e-9
    for n in range(3, 9):
        prog = build_program(n)
        assert abs(solve_lp(prog).objective_value - lp_vertex_minimum(prog)) <= 1e-8
    values = ", ".join(f"n={n}: {v:g}" for n, v in computed.items())
    _stamp(5, f"min slack 0 for n<=5, positive for n>=6 (computed: {values}); "
              "exact LP optimum matches vertex enumeration for n<=8", t0, 30.0)


def test_criterion_06_backward_residual():
    t0 = time.time()
    rng = np.random.default_rng(2025)
    for _ in range(1000):
        n = int(rng.integers(3, 13))
        a = rand_sym(rng, n)
        f = factorize(a)
        assert residual(a, f.p, f.L, f.T) <= 1e-12 * n * max_abs(a)
        assert np.max(np.abs(f.L.strict)) <= 1.0 + 1e-14
        assert np.all(f.L.strict[1:, 0] == 0.0)
    _stamp(6, "1000 random factorizations: residual, |l|<=1+1e-14, first column e1", t0, 10.0)


def test_criterion_07_scale_invariance():
    t0 = time.time()
    rng = np.random.default_rng(2026)
    scales = [-1e3, -1.0, 1e-3, 1e3]
    for k in range(100):
        n = int(rng.integers(3, 16))
        a = rand_sym(rng, n)
        c = scales[k % 4]
        fa = factorize(a)
        fb = factorize(SymmetricMatrix(a.entries * c))
        ga = growth_factor(a, fa)
        gb = growth_factor(SymmetricMatrix(a.entries * c), fb)
        assert abs(gb - ga) <= 1e-12 * ga
        assert np.array_equal(fa.p.p, fb.p.p)
    _stamp(7, "100 scaled pairs: growth equal to 1e-12 rel, permutations identical", t0, 5.0)


def test_criterion_08_solver():
    t0 = time.time()
    rng = np.random.default_rng(2027)
    for _ in range(100):
        n = int(rng.integers(1, 31))
        q, _ = np.linalg.qr(rng.normal(size=(n, n)))
        d = rng.uniform(1.0, 2.0, n) * rng.choice([-1.0, 1.0], n)
        a = SymmetricMatrix.from_full(q @ np.diag(d) @ q.T, tol=1e-12)
        b = rng.uniform(-1, 1, n)
        x = solve(factorize(a), b)
        scale = n * max_abs(a) * max(np.max(np.abs(x)), np.max(np.abs(b)))
        assert np.max(np.abs(a.entries @ x - b)) <= 1e-10 * scale
    try:
        solve(factorize(SymmetricMatrix(np.zeros((3, 3)))), np.ones(3))
        raise AssertionError("zero matrix must raise the singularity error")
    except SingularMatrixError:
        pass
    _stamp(8, "100 well-conditioned solves within 1e-10 scaled; zero matrix raises", t0, 5.0)


def test_criterion_09_search_properties():
    t0 = time.time()
    for n, d in [(4, 0.05), (5, 0.01), (6, 0.4)]:
        w = extremal_matrix(n, d).A
        start = evaluate_candidate(w)
        out = maximize_growth(SearchConfig(n=n, restarts=1, warm_starts=(w,)))
        assert out.best_growth >= start - 1e-9
    cold = maximize_growth(SearchConfig(n=3, restarts=64, seed=0))
    assert cold.best_growth <= 4.0 + 1e-9
    again = maximize_growth(SearchConfig(n=3, restarts=64, seed=0))
    assert cold.best_growth == again.best_growth
    assert cold.evaluations == again.evaluations
    assert np.array_equal(cold.best_matrix.entries, again.best_matrix.entries)
    _stamp(9, f"warm dominance holds; n=3 cold best {cold.best_growth:.9f} <= 4+1e-9; "
              "seeds reproduce", t0, 60.0)


def test_criterion_10_cli_roundtrip_and_exit_codes(tmp_path, capsys):
    t0 = time.time()
    rng = np.random.default_rng(2028)
    for n in (1, 4, 9):
        text = emit_matrix(rand_sym(rng, n, scale=5.0))
        assert emit_matrix(parse_matrix(text)) == text

    mat = tmp_path / "n6.txt"
    mat.write_text(emit_matrix(extremal_matrix(6, 0.4).A))

    def check(*argv):
        assert main(list(argv)) == EXIT_OK
        report = json.loads(capsys.readouterr().out)
        jsonschema.validate(report, REPORT_SCHEMA)
        return report

    check("factor", str(mat))
    check("certify", str(mat))
    check("lp", "--n", "6")
    check("examples", "--n", "5", "--delta", "0.5", "--out", str(tmp_path))
    check("search", "--n", "6", "--restarts", "1", "--warm", str(mat))

    assert main(["examples", "--n", "4", "--delta", "3", "--out", str(tmp_path)]) == EXIT_DOMAIN
    capsys.readouterr()
    assert main(["examples", "--n", "6", "--delta", "0.2", "--out", str(tmp_path)]) == EXIT_DOMAIN
    capsys.readouterr()
    _stamp(10, "matrix files round-trip byte-identical; all five subcommands emit "
               "schema-valid reports; window violations exit 2", t0, 5.0)
