"""Linear-program certificate for the trailing entry of the tridiagonal factor.

For a target dimension n the program minimizes the total slack
delta = sum(delta_j) that the entry t_nn gives up relative to 2^(n-1).  The
optimum is this program's: a positive one says that no point of its rows
reaches 2^(n-1), not that every Aasen factorization keeps |t_nn| below
2^(n-1) * max|a_ij| minus it.  The n = 9 matrix in tests/data/tnn_n9.txt
has |t_99| / max|a_ij| = 32.741975, above the program's 2^8 - 228 = 28.

The program data are Python ints.  No solver runs: solve_lp() returns the
closed-form optimum, 0 for n <= 5 and 2^(n-1) - 28 from n = 6 on, once
verify() has checked it and a dual certificate exactly against the rows.
"""
from __future__ import annotations

from math import lcm
from operator import mul
from typing import NamedTuple, Tuple

# Slack for max_violation() on a float point, such as one read from a report.
FEASIBILITY_TOL = 1e-9


class ConstraintRow(NamedTuple):
    label: str
    coeffs: Tuple[int, ...]
    lo: int
    up: int


class DeltaProgram(NamedTuple):
    """Slack-minimization program over delta_0 .. delta_(n-2)."""

    n: int
    objective: Tuple[int, ...]
    rows: Tuple[ConstraintRow, ...]

    def max_violation(self, x) -> float:
        """Largest row violation of a point of ints or floats (0 if feasible), exact."""
        from fractions import Fraction  # imported here: it loads decimal, a few ms
        x = [Fraction(v) for v in x]  # scaled to ints by the common denominator
        den = lcm(*(v.denominator for v in x))
        x = [v.numerator * (den // v.denominator) for v in x]
        worst = 0
        for row in self.rows:
            val = sum(map(mul, row.coeffs, x))
            worst = max(worst, row.lo * den - val, val - row.up * den)
        return worst / den


class LPSolution(NamedTuple):
    objective_value: int
    point: Tuple[int, ...]
    iterations: int = 0  # the optimum is closed-form: no pivots


def build_program(n: int) -> DeltaProgram:
    """Assemble the constraint rows for target dimension n.

    Families (all sums over j, empty sums are 0):
      box:    0 <= delta_j <= 2^(j+1)                 0 <= j <= n-2
      chain:  0 <= delta_(q-2) - sum_{j<=q-3} delta_j <= 2        3 <= q <= n-1
      power:  2^q - 14 <= 7*sum_{j<=q-4} delta_j - delta_(q-3)
                          + delta_(q-2) <= 2^q                    3 <= q <= n-2
      tail:   -6 <= 3*sum_{j<=n-5} delta_j - delta_(n-4)
                          + delta_(n-3) - delta_(n-2) <= 0        n >= 4
    """
    if n < 3:
        raise ValueError("delta program requires n >= 3")
    nv = n - 1
    rows = []

    def add(label, prefix_coeff, prefix_len, last, lo, up):
        # prefix_coeff on delta_0 .. delta_(prefix_len-1), then the coefficients last
        c = [prefix_coeff] * prefix_len + last
        rows.append(ConstraintRow(label, tuple(c + [0] * (nv - len(c))), lo, up))

    for j in range(nv):
        add(f"box[{j}]", 0, j, [1], 0, 2 ** (j + 1))
    for q in range(3, n):
        add(f"chain[q={q}]", -1, q - 2, [1], 0, 2)
    for q in range(3, n - 1):
        add(f"power[q={q}]", 7, q - 3, [-1, 1], 2**q - 14, 2**q)
    if n >= 4:
        add("tail", 3, n - 4, [-1, 1, -1], -6, 0)

    return DeltaProgram(n=n, objective=(1,) * nv, rows=tuple(rows))


def _optimum(n: int) -> Tuple[Tuple[int, ...], dict]:
    """Closed-form optimal point and dual multipliers of build_program(n).

    n <= 5: the point 0, proved optimal by the lower sides of the box rows.
    n >= 6: 1 x tail (up) + 8 x chain[q=n-3] + 2 x chain[q=n-1] + 2 x power[q=n-2]
    (lo) sum to sum_j delta_j >= 2^(n-1) - 28, and the point meets those four
    rows with equality: prefix sums 2^(k+1) - 1 for k <= n-7 and s = 2^(n-5) - 2
    at k = n-6, then the coordinates s, 2^(n-4) - 2, 2^(n-3) - 6, 2^(n-2) - 16.
    """
    if n <= 5:
        return (0,) * (n - 1), {(f"box[{j}]", "lo"): 1 for j in range(n - 1)}
    head = [2**k for k in range(n - 5)]
    head[-1] -= 1  # delta_(n-6) = s - (2^(n-6) - 1)
    point = head + [2 ** (n - 5) - 2, 2 ** (n - 4) - 2, 2 ** (n - 3) - 6, 2 ** (n - 2) - 16]
    duals = {("tail", "up"): 1, (f"chain[q={n - 3}]", "lo"): 8,
             (f"chain[q={n - 1}]", "lo"): 2, (f"power[q={n - 2}]", "lo"): 2}
    return tuple(point), duals


def verify(prog: DeltaProgram, point, duals: dict) -> int:
    """Check optimality exactly and return the optimal objective.

    duals maps (row label, side) to a multiplier: side "lo" adds row >= lo,
    side "up" adds -row >= -up.  Raises ValueError unless the point meets
    every row, every multiplier is nonnegative, and the weighted rows sum to
    prog.objective with a right-hand side equal to the point's objective;
    weak duality then makes the point optimal.  Int data make it exact.
    """
    nv = len(prog.objective)
    if len(point) != nv:
        raise ValueError(f"point has {len(point)} coordinates, program has {nv}")
    for row in prog.rows:
        val = sum(map(mul, row.coeffs, point))
        if not row.lo <= val <= row.up:
            raise ValueError(f"point violates {row.label}: {val} not in [{row.lo}, {row.up}]")
    rows = {row.label: row for row in prog.rows}
    coeffs, rhs = [0] * nv, 0
    for (label, side), weight in duals.items():
        row = rows.get(label)
        if weight < 0 or row is None or side not in ("lo", "up"):
            raise ValueError(f"multiplier {weight} on {label} ({side}): negative or not a row")
        w, side_rhs = (weight, row.lo) if side == "lo" else (-weight, row.up)
        coeffs = [c + w * a for c, a in zip(coeffs, row.coeffs)]
        rhs += w * side_rhs
    if tuple(coeffs) != prog.objective:
        raise ValueError("weighted rows do not sum to the objective")
    value = sum(map(mul, prog.objective, point))
    if rhs != value:
        raise ValueError(f"dual bound {rhs} differs from the point's objective {value}")
    return value


def solve_lp(prog: DeltaProgram) -> LPSolution:
    """The closed-form optimum of prog, once verify() accepts it (else ValueError)."""
    point, duals = _optimum(prog.n)
    return LPSolution(verify(prog, point, duals), point)


def min_delta(n: int) -> int:
    """Optimal total slack for dimension n, exact: 0 for n <= 5, 2^(n-1) - 28 after.

    2^(n-1) - min_delta(n) is the program's optimum for |t_nn| / max|a_ij|,
    not a bound on every factorization (see the module docstring).
    """
    return solve_lp(build_program(n)).objective_value
