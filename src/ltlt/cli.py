"""Command-line front end: matrix file I/O and report-producing subcommands.

Exit codes: 0 success, 1 usage or parse error (also an input file that
cannot be read or decoded, or an output path that cannot be written),
2 domain error (validity window, an lp dimension outside 3..MAX_N, a
search dimension outside 3..37, the largest n whose search round fits
search.STACK_BUDGET, a factorization or a certificate bound overflowing
the double range), 3 internal invariant violation (a failing
certificate, which should never occur, or an extremal example whose fresh
factorization misses the family's growth by more than
extremal.GROWTH_REL_TOL).  Every successful invocation, and every exit 3,
prints one JSON report validating against REPORT_SCHEMA, on one line.
The schema is per command: it states each command's inputs and outputs
once, and requires every field but factor's ``growth`` (the zero matrix
has none) and search's ``warm``.  A report writes each value once, and
only values the computation produced: what depends on n alone (the
certificate's row labels and bounds, which GrowthCertificate.row(k) forms
from n and k, and the slack program) is not written, and ``l_strict``
holds only L's strict lower triangle, row i its first i entries.

At module level this imports only the standard library, the package's
DomainError and MAX_N, and the pure-Python lpcert.  The numerical modules,
and so numpy, load inside the functions that use them, so ``ltlt lp`` and a
usage error never import numpy; argparse and json load there too, so
``import ltlt.cli`` alone loads neither.  ``factor``, ``certify`` and
``search --warm`` read and parse their input file before those imports, so
a file that cannot be read or parsed does not load numpy either.
"""
from __future__ import annotations

import math
import sys
from pathlib import Path
from typing import TYPE_CHECKING

from . import MAX_N, DomainError
from .lpcert import build_program, solve_lp

if TYPE_CHECKING:
    import argparse

    from .growth import GrowthCertificate
    from .matcore import SymmetricMatrix

SCHEMA_VERSION = "6"

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DOMAIN = 2
EXIT_INTERNAL = 3

# Asymmetry allowed in an input file before it is rejected, relative to its
# largest entry magnitude.
SYMMETRY_TOL = 1e-12


class MatrixFileError(ValueError):
    """Unreadable or malformed matrix file (bad header, shape, token, or asymmetry)."""


def _closed(*optional: str, **props) -> dict:
    """An object with exactly ``props``, each required unless named in ``optional``."""
    required = [k for k in props if k not in optional]
    return {"type": "object", "additionalProperties": False, "required": required,
            "properties": props}


_NUM = {"type": "number"}
_INT = {"type": "integer"}
_STR = {"type": "string"}
_BOOL = {"type": "boolean"}
_NUM_ARRAY = {"type": "array", "items": _NUM}
_MATRIX = {"type": "array", "items": _NUM_ARRAY}
_FILE = _closed(path=_STR, n=_INT)

# command -> (inputs, outputs)
_COMMANDS = {
    "factor": (_FILE, _closed(
        "growth",  # the zero matrix has no growth factor
        permutation={"type": "array", "items": _INT}, l_strict=_MATRIX, t_diag=_NUM_ARRAY,
        t_offdiag=_NUM_ARRAY, residual=_NUM, growth=_NUM,
    )),
    "certify": (_FILE, _closed(
        certificate=_closed(
            lhs=_NUM_ARRAY,
            worst=_closed(label=_STR, lhs=_NUM, bound=_NUM, margin=_NUM),  # growth.CheckRow
            all_pass=_BOOL,
        ),
        growth=_NUM, residual=_NUM,
    )),
    "lp": (_closed(n=_INT), _closed(lp=_closed(objective=_NUM, point=_NUM_ARRAY, tnn_bound=_NUM))),
    "examples": (_closed(n=_INT, delta=_NUM, out_dir=_STR), _closed(example=_closed(
        expected_growth=_NUM, reference_residual=_NUM, reference_growth=_NUM,
        recomputed_residual=_NUM, recomputed_growth=_NUM, growth_rel_diff=_NUM,
        certificates_pass=_BOOL, matrix_file=_STR,
    ))),
    "search": (_closed("warm", n=_INT, seed=_INT, restarts=_INT, warm=_STR), _closed(
        search=_closed(best_growth=_NUM, bound=_NUM, gap=_NUM, evaluations=_INT,
                       per_restart_best=_NUM_ARRAY, best_matrix=_MATRIX),
    )),
}

# if/then, not oneOf: a report missing a field is told which one, not
# another command's mismatch
REPORT_SCHEMA = {
    "$schema": "http://json-schema.org/draft-07/schema#",
    "title": "ltlt report",
    **_closed(
        schema_version={"const": SCHEMA_VERSION},
        command={"enum": list(_COMMANDS)},
        status={"enum": ["ok", "invariant-violation"]},
        inputs={"type": "object"},
        outputs={"type": "object"},
    ),
    "allOf": [
        {"if": {"properties": {"command": {"const": c}}},
         "then": {"properties": {"inputs": inputs, "outputs": outputs}}}
        for c, (inputs, outputs) in _COMMANDS.items()
    ],
}


def emit_matrix(a: SymmetricMatrix) -> str:
    """Serialize with 17 significant digits so doubles round-trip losslessly."""
    lines = [f"symmetric {a.n}"]
    for row in a.entries:
        lines.append(" ".join(f"{x:.17g}" for x in row))
    return "\n".join(lines) + "\n"


def _token_error(lineno: int, fields) -> MatrixFileError:
    """The error for the first token of a failed row that is not a finite number."""
    for j, tok in enumerate(fields):
        try:
            if "_" in tok:  # float() and int() read digit-group underscores: 1_0 is 10
                raise ValueError
            val = float(tok)
        except ValueError:
            return MatrixFileError(f"line {lineno}, column {j + 1}: {tok!r} is not a number")
        if not math.isfinite(val):
            return MatrixFileError(
                f"line {lineno}, column {j + 1}: entries must be finite, got {tok}"
            )


def parse_matrix(text: str) -> SymmetricMatrix:
    """Parse the 'symmetric <n>' format; diagnostics carry line/column.

    Every check but symmetry runs on Python floats, before numpy loads.
    """
    lines = text.splitlines()
    head = lines[0].split() if lines else []
    if len(head) != 2 or head[0] != "symmetric":
        raise MatrixFileError("line 1: expected header 'symmetric <n>'")
    try:
        if "_" in head[1]:
            raise ValueError
        n = int(head[1])
    except ValueError:
        raise MatrixFileError(f"line 1: dimension {head[1]!r} is not an integer") from None
    if n < 1:
        raise MatrixFileError(f"line 1: dimension must be >= 1, got {n}")
    # checked before reading rows, so a huge header on a short file is a parse
    # error found at once
    if len(lines) - 1 < n:
        raise MatrixFileError(f"line {len(lines) + 1}: missing row {len(lines)} of {n}")

    entries = []
    for i in range(n):
        lineno = i + 2
        fields = lines[i + 1].split()
        if len(fields) != n:
            raise MatrixFileError(
                f"line {lineno}: expected {n} values, got {len(fields)}"
            )
        try:
            row = list(map(float, fields))
        except ValueError:
            raise _token_error(lineno, fields) from None
        if "_" in lines[i + 1] or not all(map(math.isfinite, row)):
            raise _token_error(lineno, fields)
        entries.append(row)
    for extra in range(n + 1, len(lines)):
        if lines[extra].split():
            raise MatrixFileError(f"line {extra + 1}: unexpected content after matrix")

    import numpy as np

    from .matcore import SymmetricMatrix

    a = np.array(entries)
    try:
        return SymmetricMatrix.from_full(a, tol=SYMMETRY_TOL * np.max(np.abs(a)))
    except ValueError as e:
        raise MatrixFileError(str(e)) from None


def read_matrix(path: str) -> SymmetricMatrix:
    try:
        # a leading byte-order mark is dropped after decoding, so a decode
        # error gives its byte's offset in the file
        text = Path(path).read_text(encoding="utf-8").removeprefix("\ufeff")
    except (OSError, UnicodeDecodeError) as e:
        raise MatrixFileError(f"cannot read {path}: {e}") from None
    return parse_matrix(text)


def _write_text(path: Path, text: str, parents: bool = False):
    """Write a file named on the command line, after making its directory if
    ``parents``; failing is an exit-1 error that names the path."""
    try:
        if parents:
            path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
    except OSError as e:
        raise ValueError(f"cannot write {path}: {e}") from None


def _cert_dict(cert: GrowthCertificate) -> dict:
    # labels and bounds depend on n alone: GrowthCertificate.row(k) forms them
    return {
        "lhs": cert.lhs.tolist(),
        "worst": cert.worst()._asdict(),
        "all_pass": cert.all_pass,
    }


def _write_report(
    command: str, inputs: dict, outputs: dict, out: str | None, passed: bool = True
) -> int:
    """Write the report to ``out`` or stdout; returns the exit code, 3 unless ``passed``."""
    report = {
        "schema_version": SCHEMA_VERSION,
        "command": command,
        "status": "ok" if passed else "invariant-violation",
        "inputs": inputs,
        "outputs": outputs,
    }
    import json

    # no indent: json's C encoder only runs on compact output
    text = json.dumps(report, allow_nan=False) + "\n"
    if out:
        _write_text(Path(out), text)
    else:
        sys.stdout.write(text)
    return EXIT_OK if passed else EXIT_INTERNAL


def cmd_factor(args) -> int:
    a = read_matrix(args.input)
    from .aasen import factorize
    from .growth import UndefinedGrowthError, growth_factor
    from .matcore import residual

    f = factorize(a)
    strict = f.L.strict
    outputs = {
        "permutation": f.p.p.tolist(),
        # the strict lower triangle: row i holds l[i][:i], so row 0 is []
        "l_strict": [strict[i, :i].tolist() for i in range(a.n)],
        "t_diag": f.T.diag.tolist(),
        "t_offdiag": f.T.offdiag.tolist(),
        "residual": residual(a, f.p, f.L, f.T),
    }
    try:
        outputs["growth"] = growth_factor(a, f)
    except UndefinedGrowthError:  # the zero matrix has no growth factor
        pass
    return _write_report("factor", {"path": args.input, "n": a.n}, outputs, args.out)


def cmd_certify(args) -> int:
    a = read_matrix(args.input)
    from .aasen import factorize
    from .growth import growth_certificate
    from .matcore import residual

    f = factorize(a)
    cert = growth_certificate(a, f)
    outputs = {
        "certificate": _cert_dict(cert),
        "growth": cert.rho,
        "residual": residual(a, f.p, f.L, f.T),
    }
    inputs = {"path": args.input, "n": a.n}
    return _write_report("certify", inputs, outputs, args.out, cert.all_pass)


def cmd_lp(args) -> int:
    if not 3 <= args.n <= MAX_N:
        raise DomainError(f"lp requires 3 <= n <= {MAX_N}, got {args.n}")
    sol = solve_lp(build_program(args.n))
    # the optimum is exact ints; a reader rebuilds the program as build_program(n).
    # tnn_bound is the program's optimum for |t_nn| / max|a_ij|, not a bound on it
    outputs = {
        "lp": {
            "objective": sol.objective_value,
            "point": list(sol.point),
            "tnn_bound": float(2 ** (args.n - 1) - sol.objective_value),
        }
    }
    return _write_report("lp", {"n": args.n}, outputs, args.out)


def cmd_examples(args) -> int:
    from .extremal import GROWTH_REL_TOL, extremal_matrix, verify_example

    ex = extremal_matrix(args.n, args.delta)
    report = verify_example(ex)
    out_dir = Path(args.out or ".")
    matrix_path = out_dir / f"extremal_n{args.n}_delta{args.delta!r}.txt"
    _write_text(matrix_path, emit_matrix(ex.A), parents=True)
    both_pass = report.reference_certificate.all_pass and report.recomputed_certificate.all_pass
    recomputed = report.recomputed_certificate.rho
    rel_diff = abs(recomputed - ex.expected_growth) / ex.expected_growth
    outputs = {
        "example": {
            "expected_growth": ex.expected_growth,
            "reference_residual": report.reference_residual,
            "reference_growth": report.reference_certificate.rho,
            "recomputed_residual": report.recomputed_residual,
            "recomputed_growth": recomputed,
            "growth_rel_diff": rel_diff,
            "certificates_pass": both_pass,
            "matrix_file": str(matrix_path),
        }
    }
    inputs = {"n": args.n, "delta": args.delta, "out_dir": str(out_dir)}
    # a fresh factorization that misses the family's growth fails like a certificate
    passed = both_pass and rel_diff <= GROWTH_REL_TOL
    return _write_report("examples", inputs, outputs, None, passed)


def cmd_search(args) -> int:
    warm = ()
    inputs = {"n": args.n, "seed": args.seed, "restarts": args.restarts}
    if args.warm:
        warm = (read_matrix(args.warm),)
        inputs["warm"] = args.warm
    from .search import SearchConfig, maximize_growth

    cfg = SearchConfig(n=args.n, restarts=args.restarts, seed=args.seed, warm_starts=warm)
    outcome = maximize_growth(cfg)
    bound = 2.0 ** (args.n - 1)
    outputs = {
        "search": {
            "best_growth": outcome.best_growth,
            "bound": bound,
            "gap": bound - outcome.best_growth,
            "evaluations": outcome.evaluations,
            "per_restart_best": outcome.per_restart_best,
            "best_matrix": outcome.best_matrix.entries.tolist(),
        }
    }
    return _write_report("search", inputs, outputs, args.out)


class _UsageError(Exception):
    pass


def build_parser() -> argparse.ArgumentParser:
    import argparse

    class _Parser(argparse.ArgumentParser):
        """argparse that reports usage problems via exit code 1, not 2."""

        def error(self, message):
            raise _UsageError(message)

    parser = _Parser(prog="ltlt", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    def add_out(p):
        p.add_argument("--out", default=None, help="write the JSON report here instead of stdout")

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
    except (DomainError, OverflowError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_DOMAIN
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
