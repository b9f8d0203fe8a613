"""Command-line front end: matrix file I/O and report-producing subcommands.

Exit codes: 0 success, 1 usage or parse error, 2 domain error (validity
window, LP domain, a factorization overflowing the double range), 3 internal
invariant violation (a failing certificate, which should never occur).  Every
successful invocation prints one JSON report validating against REPORT_SCHEMA.
"""
from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

from .aasen import factorize
from .extremal import DeltaWindowError, extremal_matrix, verify_example
from .growth import (
    GrowthCertificate,
    UndefinedGrowthError,
    growth_certificate,
    growth_factor,
)
from .lpcert import build_program, solve_lp
from .matcore import SymmetricMatrix, residual
from .search import SearchConfig, maximize_growth

SCHEMA_VERSION = "2"

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DOMAIN = 2
EXIT_INTERNAL = 3

# Asymmetry allowed in an input file before it is rejected.
SYMMETRY_TOL = 1e-12

# Largest dimension for lp and search: their bounds 2^(n-1) overflow a
# double from n = 1025 on.
MAX_N = 1024


class MatrixFileError(ValueError):
    """Malformed matrix file (bad header, shape, token, or asymmetry)."""


class DomainError(ValueError):
    """Structurally valid request outside an operation's domain."""


_NUM = {"type": "number"}
_NUM_ARRAY = {"type": "array", "items": _NUM}
_MATRIX = {"type": "array", "items": _NUM_ARRAY}

REPORT_SCHEMA = {
    "$schema": "http://json-schema.org/draft-07/schema#",
    "title": "ltlt report",
    "type": "object",
    "required": ["schema_version", "command", "status", "inputs", "outputs"],
    "additionalProperties": False,
    "properties": {
        "schema_version": {"const": SCHEMA_VERSION},
        "command": {"enum": ["factor", "certify", "lp", "examples", "search"]},
        "status": {"enum": ["ok", "invariant-violation"]},
        "inputs": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "path": {"type": "string"},
                "n": {"type": "integer"},
                "delta": _NUM,
                "seed": {"type": "integer"},
                "restarts": {"type": "integer"},
                "warm": {"type": "string"},
                "out_dir": {"type": "string"},
            },
        },
        "outputs": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "permutation": {"type": "array", "items": {"type": "integer"}},
                "l_strict": _MATRIX,
                "t_diag": _NUM_ARRAY,
                "t_offdiag": _NUM_ARRAY,
                "residual": _NUM,
                "growth": _NUM,
                "certificate": {
                    "type": "object",
                    "additionalProperties": False,
                    "required": ["rows", "all_pass", "rho"],
                    "properties": {
                        "rows": {
                            "type": "array",
                            "items": {
                                "type": "object",
                                "additionalProperties": False,
                                "required": ["label", "lhs", "bound", "margin"],
                                "properties": {
                                    "label": {"type": "string"},
                                    "lhs": _NUM,
                                    "bound": _NUM,
                                    "margin": _NUM,
                                },
                            },
                        },
                        "all_pass": {"type": "boolean"},
                        "rho": _NUM,
                    },
                },
                "lp": {
                    "type": "object",
                    "additionalProperties": False,
                    "required": ["objective", "point", "iterations", "tnn_bound"],
                    "properties": {
                        "rows": {
                            "type": "array",
                            "items": {
                                "type": "object",
                                "additionalProperties": False,
                                "required": ["label", "coeffs", "lo", "up"],
                                "properties": {
                                    "label": {"type": "string"},
                                    "coeffs": _NUM_ARRAY,
                                    "lo": _NUM,
                                    "up": _NUM,
                                },
                            },
                        },
                        "objective": _NUM,
                        "point": _NUM_ARRAY,
                        "iterations": {"type": "integer"},
                        "tnn_bound": _NUM,
                        "bound_not_tight": {"type": "boolean"},
                    },
                },
                "example": {
                    "type": "object",
                    "additionalProperties": False,
                    "properties": {
                        "expected_growth": _NUM,
                        "reference_residual": _NUM,
                        "reference_growth": _NUM,
                        "recomputed_residual": _NUM,
                        "recomputed_growth": _NUM,
                        "certificates_pass": {"type": "boolean"},
                        "matrix_file": {"type": "string"},
                    },
                },
                "search": {
                    "type": "object",
                    "additionalProperties": False,
                    "required": ["best_growth", "bound", "gap", "evaluations"],
                    "properties": {
                        "best_growth": _NUM,
                        "bound": _NUM,
                        "gap": _NUM,
                        "evaluations": {"type": "integer"},
                        "restarts": {"type": "integer"},
                        "per_restart_best": _NUM_ARRAY,
                        "best_matrix": _MATRIX,
                    },
                },
            },
        },
    },
}


def emit_matrix(a: SymmetricMatrix) -> str:
    """Serialize with 17 significant digits so doubles round-trip losslessly."""
    lines = [f"symmetric {a.n}"]
    for row in a.entries:
        lines.append(" ".join(f"{x:.17g}" for x in row))
    return "\n".join(lines) + "\n"


def parse_matrix(text: str) -> SymmetricMatrix:
    """Parse the 'symmetric <n>' format; diagnostics carry line/column."""
    lines = text.splitlines()
    if not lines or not lines[0].split():
        raise MatrixFileError("line 1: expected header 'symmetric <n>'")
    head = lines[0].split()
    if len(head) != 2 or head[0] != "symmetric":
        raise MatrixFileError("line 1: expected header 'symmetric <n>'")
    try:
        n = int(head[1])
    except ValueError:
        raise MatrixFileError(f"line 1: dimension {head[1]!r} is not an integer") from None
    if n < 1:
        raise MatrixFileError(f"line 1: dimension must be >= 1, got {n}")
    # checked before allocating, so a huge header on a short file is a parse
    # error rather than an n-by-n allocation
    if len(lines) - 1 < n:
        raise MatrixFileError(f"line {len(lines) + 1}: missing row {len(lines)} of {n}")

    entries = np.zeros((n, n))
    for i in range(n):
        lineno = i + 2
        fields = lines[i + 1].split()
        if len(fields) != n:
            raise MatrixFileError(
                f"line {lineno}: expected {n} values, got {len(fields)}"
            )
        for j, tok in enumerate(fields):
            try:
                val = float(tok)
            except ValueError:
                raise MatrixFileError(
                    f"line {lineno}, column {j + 1}: {tok!r} is not a number"
                ) from None
            if not math.isfinite(val):
                raise MatrixFileError(
                    f"line {lineno}, column {j + 1}: entries must be finite, got {tok}"
                )
            entries[i, j] = val
    for extra in range(n + 1, len(lines)):
        if lines[extra].split():
            raise MatrixFileError(f"line {extra + 1}: unexpected content after matrix")

    try:
        return SymmetricMatrix.from_full(entries, tol=SYMMETRY_TOL)
    except ValueError as e:
        raise MatrixFileError(str(e)) from None


def read_matrix(path: str) -> SymmetricMatrix:
    try:
        text = Path(path).read_text()
    except OSError as e:
        raise MatrixFileError(f"cannot read {path}: {e}") from None
    return parse_matrix(text)


def _cert_dict(cert: GrowthCertificate) -> dict:
    return {
        "rows": [
            {"label": r.label, "lhs": r.lhs, "bound": r.bound, "margin": r.margin}
            for r in cert.checks
        ],
        "all_pass": cert.all_pass,
        "rho": cert.rho,
    }


def _report(command: str, inputs: dict, outputs: dict, status: str = "ok") -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "command": command,
        "status": status,
        "inputs": inputs,
        "outputs": outputs,
    }


def _write_report(report: dict, out: str | None):
    text = json.dumps(report, indent=2, allow_nan=False) + "\n"
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


def cmd_factor(args) -> int:
    a = read_matrix(args.input)
    f = factorize(a)
    outputs = {
        "permutation": f.p.p.tolist(),
        "l_strict": f.L.strict.tolist(),
        "t_diag": f.T.diag.tolist(),
        "t_offdiag": f.T.offdiag.tolist(),
        "residual": residual(a, f.p, f.L, f.T),
    }
    if np.any(a.entries):
        outputs["growth"] = growth_factor(a, f)
    inputs = {"path": args.input, "n": a.n}
    _write_report(_report("factor", inputs, outputs), args.out)
    return EXIT_OK


def cmd_certify(args) -> int:
    a = read_matrix(args.input)
    f = factorize(a)
    cert = growth_certificate(a, f)
    outputs = {
        "certificate": _cert_dict(cert),
        "growth": cert.rho,
        "residual": residual(a, f.p, f.L, f.T),
    }
    inputs = {"path": args.input, "n": a.n}
    status = "ok" if cert.all_pass else "invariant-violation"
    _write_report(_report("certify", inputs, outputs, status), args.out)
    return EXIT_OK if cert.all_pass else EXIT_INTERNAL


def _check_n(command: str, n: int):
    if not 3 <= n <= MAX_N:
        raise DomainError(f"{command} requires 3 <= n <= {MAX_N}, got {n}")


def cmd_lp(args) -> int:
    _check_n("lp", args.n)
    prog = build_program(args.n)
    sol = solve_lp(prog)
    if sol.status != "optimal":
        raise DomainError(f"delta program for n={args.n} is {sol.status}")
    outputs = {
        "lp": {
            "rows": [
                {"label": r.label, "coeffs": list(r.coeffs), "lo": r.lo, "up": r.up}
                for r in prog.rows
            ],
            "objective": sol.objective_value,
            "point": sol.point.tolist(),
            "iterations": sol.iterations,
            "tnn_bound": 2.0 ** (args.n - 1) - sol.objective_value,
            "bound_not_tight": sol.objective_value > 1e-9,
        }
    }
    _write_report(_report("lp", {"n": args.n}, outputs), args.out)
    return EXIT_OK


def cmd_examples(args) -> int:
    ex = extremal_matrix(args.n, args.delta)
    report = verify_example(ex)
    out_dir = Path(args.out or ".")
    out_dir.mkdir(parents=True, exist_ok=True)
    matrix_path = out_dir / f"extremal_n{args.n}_delta{args.delta:g}.txt"
    matrix_path.write_text(emit_matrix(ex.A))
    both_pass = report.reference_certificate.all_pass and report.recomputed_certificate.all_pass
    outputs = {
        "example": {
            "expected_growth": ex.expected_growth,
            "reference_residual": report.reference_residual,
            "reference_growth": report.reference_growth,
            "recomputed_residual": report.recomputed_residual,
            "recomputed_growth": report.recomputed_growth,
            "certificates_pass": both_pass,
            "matrix_file": str(matrix_path),
        }
    }
    inputs = {"n": args.n, "delta": args.delta, "out_dir": str(out_dir)}
    status = "ok" if both_pass else "invariant-violation"
    _write_report(_report("examples", inputs, outputs, status), None)
    return EXIT_OK if both_pass else EXIT_INTERNAL


def cmd_search(args) -> int:
    _check_n("search", args.n)
    warm = ()
    inputs = {"n": args.n, "seed": args.seed, "restarts": args.restarts}
    if args.warm:
        warm = (read_matrix(args.warm),)
        inputs["warm"] = args.warm
    cfg = SearchConfig(n=args.n, restarts=args.restarts, seed=args.seed, warm_starts=warm)
    outcome = maximize_growth(cfg)
    bound = 2.0 ** (args.n - 1)
    outputs = {
        "search": {
            "best_growth": outcome.best_growth,
            "bound": bound,
            "gap": bound - outcome.best_growth,
            "evaluations": outcome.evaluations,
            "restarts": len(outcome.per_restart_best),
            "per_restart_best": outcome.per_restart_best,
            "best_matrix": outcome.best_matrix.entries.tolist(),
        }
    }
    _write_report(_report("search", inputs, outputs), args.out)
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage problems via exit code 1, not 2."""

    def error(self, message):
        raise _UsageError(message)


class _UsageError(Exception):
    pass


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="ltlt", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    def add_out(p, help_text="write the JSON report here instead of stdout"):
        p.add_argument("--out", default=None, help=help_text)

    p = sub.add_parser("factor", help="factorize a matrix file as P A P^T = L T L^T")
    p.add_argument("input", help="matrix file path")
    add_out(p)
    p.set_defaults(func=cmd_factor)

    p = sub.add_parser("certify", help="factorize and check every growth bound")
    p.add_argument("input", help="matrix file path")
    add_out(p)
    p.set_defaults(func=cmd_certify)

    p = sub.add_parser("lp", help="build and solve the slack program for dimension n")
    p.add_argument("--n", type=int, required=True)
    add_out(p)
    p.set_defaults(func=cmd_lp)

    p = sub.add_parser("examples", help="generate an extremal example matrix")
    p.add_argument("--n", type=int, required=True, choices=[4, 5, 6])
    p.add_argument("--delta", type=float, required=True)
    p.add_argument("--out", default=".", help="directory for the emitted matrix file")
    p.set_defaults(func=cmd_examples)

    p = sub.add_parser("search", help="maximize growth by coordinate pattern search")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--restarts", type=int, default=64)
    p.add_argument("--warm", default=None, help="matrix file used as a warm start")
    add_out(p)
    p.set_defaults(func=cmd_search)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as e:
        print(f"usage error: {e}", file=sys.stderr)
        return EXIT_USAGE
    try:
        return args.func(args)
    except MatrixFileError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except (DeltaWindowError, DomainError, UndefinedGrowthError, OverflowError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_DOMAIN
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
