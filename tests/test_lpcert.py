from pathlib import Path

import numpy as np
import pytest

from _helpers import factorize_scalar, lp_simplex, lp_vertex_minimum
from ltlt.aasen import factorize
from ltlt.cli import read_matrix
from ltlt.growth import growth_certificate
from ltlt.lpcert import (
    ConstraintRow,
    DeltaProgram,
    _optimum,
    build_program,
    min_delta,
    solve_lp,
    verify,
)


def _closed_form(n):
    return 0 if n <= 5 else 2 ** (n - 1) - 28


def _rows_by_label(prog):
    return {r.label: r for r in prog.rows}


def test_build_program_n3_box_only():
    prog = build_program(3)
    assert len(prog.objective) == 2
    assert [r.label for r in prog.rows] == ["box[0]", "box[1]"]
    assert prog.rows[0].lo == 0.0 and prog.rows[0].up == 2.0
    assert prog.rows[1].up == 4.0


def test_build_program_n6_families():
    prog = build_program(6)
    assert len(prog.objective) == 5
    rows = _rows_by_label(prog)
    assert {f"box[{j}]" for j in range(5)} <= rows.keys()
    assert {"chain[q=3]", "chain[q=4]", "chain[q=5]"} <= rows.keys()
    assert {"power[q=3]", "power[q=4]"} <= rows.keys()
    assert "tail" in rows
    q4 = rows["power[q=4]"]
    assert q4.coeffs == (7.0, -1.0, 1.0, 0.0, 0.0)
    assert (q4.lo, q4.up) == (2.0, 16.0)
    tail = rows["tail"]
    assert tail.coeffs == (3.0, 3.0, -1.0, 1.0, -1.0)
    assert (tail.lo, tail.up) == (-6.0, 0.0)


def test_build_program_n5_single_power_row():
    prog = build_program(5)
    rows = _rows_by_label(prog)
    power = [r for r in prog.rows if r.label.startswith("power")]
    assert len(power) == 1
    q3 = rows["power[q=3]"]
    assert q3.coeffs == (-1.0, 1.0, 0.0, 0.0)
    assert (q3.lo, q3.up) == (-6.0, 8.0)
    chain = [r for r in prog.rows if r.label.startswith("chain")]
    assert [r.label for r in chain] == ["chain[q=3]", "chain[q=4]"]


def test_build_program_domain():
    with pytest.raises(ValueError):
        build_program(2)


def test_zero_feasibility_dichotomy():
    for n in range(3, 11):
        prog = build_program(n)
        violation = prog.max_violation(np.zeros(len(prog.objective)))
        if n <= 5:
            assert violation == 0.0
        else:
            assert violation >= 2.0  # power[q=4] forces 7 d0 - d1 + d2 >= 2


def test_solve_trivial_interval():
    prog = DeltaProgram(
        n=3,
        objective=(1.0,),
        rows=(ConstraintRow("interval", (1.0,), 1.0, 2.0),),
    )
    sol = lp_simplex(prog)
    assert sol.status == "optimal"
    assert abs(sol.objective_value - 1.0) <= 1e-9
    assert abs(sol.point[0] - 1.0) <= 1e-9


def test_solve_infeasible_program():
    prog = DeltaProgram(
        n=3,
        objective=(1.0,),
        rows=(
            ConstraintRow("low", (1.0,), 3.0, float("inf")),
            ConstraintRow("high", (1.0,), float("-inf"), 2.0),
        ),
    )
    assert lp_simplex(prog).status == "infeasible"


def test_min_delta_dichotomy():
    for n in (3, 4, 5):
        assert abs(min_delta(n)) <= 1e-9
    for n in range(6, 11):
        assert min_delta(n) > 1e-9


def test_min_delta_nonnegative():
    for n in range(3, 12):
        assert min_delta(n) >= 0.0


def test_simplex_matches_vertex_enumeration():
    for n in range(3, 8):  # n=8 runs in the acceptance suite
        # the vertex oracle solves in floats: 3.9999999999999973 at n = 6
        assert abs(min_delta(n) - lp_vertex_minimum(build_program(n))) <= 1e-8
    for n in range(3, 21):  # the float simplex is right up to here
        assert abs(lp_simplex(build_program(n)).objective_value - min_delta(n)) <= 1e-8


def test_min_delta_closed_form():
    for n in [*range(3, 130), 256, 512, 1023, 1024]:
        value = min_delta(n)
        assert type(value) is int and value == _closed_form(n)


def test_program_data_are_ints():
    prog = build_program(60)
    assert all(type(v) is int for v in prog.objective)
    for row in prog.rows:
        assert all(type(v) is int for v in (*row.coeffs, row.lo, row.up)), row.label
    q57 = {r.label: r for r in prog.rows}["power[q=57]"]
    assert (q57.lo, q57.up) == (2**57 - 14, 2**57)


@pytest.mark.parametrize("n", [3, 5, 6, 7, 12, 40])
def test_verify_accepts_the_closed_form(n):
    point, duals = _optimum(n)
    assert verify(build_program(n), point, duals) == _closed_form(n)
    assert sum(point) == _closed_form(n)


@pytest.mark.parametrize("n", [6, 7, 12, 40])
def test_verify_rejects_a_moved_point(n):
    prog = build_program(n)
    point, duals = _optimum(n)
    for k in range(n - 1):
        moved = list(point)
        moved[k] += 1
        with pytest.raises(ValueError):
            verify(prog, moved, duals)
    # same objective, but the tight tail row is broken
    moved = [point[0] + 1, *point[1:-1], point[-1] - 1]
    with pytest.raises(ValueError, match="point violates"):
        verify(prog, moved, duals)


@pytest.mark.parametrize("n", [6, 7, 12, 40])
def test_verify_rejects_a_wrong_weight(n):
    prog = build_program(n)
    point, duals = _optimum(n)
    assert duals[(f"chain[q={n - 3}]", "lo")] == 8
    duals[(f"chain[q={n - 3}]", "lo")] = 7
    with pytest.raises(ValueError, match="do not sum to the objective"):
        verify(prog, point, duals)


def test_verify_rejects_a_negative_multiplier():
    for n in (4, 8):
        point, duals = _optimum(n)
        duals[("box[0]", "lo")] = -1
        with pytest.raises(ValueError, match="negative or not a row"):
            verify(build_program(n), point, duals)


def test_verify_rejects_a_foreign_program():
    prog = DeltaProgram(n=4, objective=(1, 1, 1), rows=build_program(4).rows[:2])
    with pytest.raises(ValueError, match="negative or not a row"):
        solve_lp(prog)
    with pytest.raises(ValueError, match="coordinates"):
        verify(build_program(5), (0, 0, 0), {})


def test_solution_point_feasible():
    for n in range(3, 11):
        prog = build_program(n)
        sol = solve_lp(prog)
        assert prog.max_violation(sol.point) <= 1e-9
        assert abs(sol.objective_value - float(np.sum(sol.point))) <= 1e-9


@pytest.mark.parametrize("n", [58, 100])
def test_max_violation_exact(n):
    # rows are evaluated in integers, so the int optimum meets every row exactly
    prog = build_program(n)
    assert prog.max_violation(solve_lp(prog).point) == 0


def test_max_violation_of_rounded_point():
    # the optimum rounded to doubles misses chain[q=57] by exactly 2 at n = 58
    prog = build_program(58)
    assert prog.max_violation([float(v) for v in solve_lp(prog).point]) == 2.0


def test_solver_deterministic():
    prog = build_program(8)
    s1, s2 = solve_lp(prog), solve_lp(prog)
    assert s1.objective_value == s2.objective_value
    assert s1.iterations == s2.iterations
    assert np.array_equal(s1.point, s2.point)


def test_tnn_program_optimum():
    # 2^(n-1) - min_delta(n): the program's optimum for |t_nn| / max|a_ij|
    assert 2**4 - min_delta(5) == 16
    assert 2**3 - min_delta(4) == 8
    assert 2**6 - min_delta(7) < 64
    for n in (6, 21, 35, 60, 200, 1024):
        assert 2 ** (n - 1) - min_delta(n) == 28


def test_tnn_fixture_exceeds_the_program_optimum():
    # found by the direct search scoring |t_nn| / max|a| in place of growth:
    # the program's optimum 28 does not bound every Aasen factorization at
    # n = 9, while the paper's 2^(n-1) does
    a = read_matrix(str(Path(__file__).parent / "data" / "tnn_n9.txt"))
    f = factorize(a)
    want = factorize_scalar(a.entries)
    for got, exp in zip((f.p.p, f.L.strict, f.T.diag, f.T.offdiag), want):
        assert got.dtype == exp.dtype and got.tobytes() == exp.tobytes()
    assert growth_certificate(a, f).all_pass
    tnn = abs(f.T.diag[-1]) / np.abs(a.entries).max()
    assert abs(tnn - 32.741975) <= 1e-6
    assert 2**8 - min_delta(9) == 28 < tnn < 2.0**8
