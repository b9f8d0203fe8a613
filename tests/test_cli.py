import json
import subprocess
import sys
from pathlib import Path

import jsonschema
import numpy as np
import pytest

from _helpers import certificate_rows_scalar, rand_sym
from ltlt import cli, growth, lpcert
from ltlt.aasen import factorize
from ltlt.cli import (
    EXIT_DOMAIN,
    EXIT_INTERNAL,
    EXIT_OK,
    EXIT_USAGE,
    MatrixFileError,
    REPORT_SCHEMA,
    emit_matrix,
    main,
    parse_matrix,
)
from ltlt.extremal import GROWTH_REL_TOL, extremal_matrix
from ltlt.growth import MARGIN_TOL, CheckRow, growth_factor
from ltlt.lpcert import min_delta, solve_lp
from ltlt.matcore import SymmetricMatrix

DATA = Path(__file__).parent / "data"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def check_report(out: str) -> dict:
    """Parse a report, validate it, and check what the schema cannot state:
    a certificate has one lhs per row for its n, its worst row is the first
    row of smallest margin, and the certificate rebuilt from lhs and n reads
    the report's growth and all_pass."""
    report = json.loads(out)
    jsonschema.validate(report, REPORT_SCHEMA)
    assert report["schema_version"] == "6"
    assert "rule" not in report["inputs"]
    cert = report["outputs"].get("certificate")
    if cert is not None:
        rebuilt = _rebuilt_certificate(report)
        bound = growth._bounds(rebuilt.n).tolist()
        assert len(cert["lhs"]) == len(bound)
        margin = [b - x for b, x in zip(bound, cert["lhs"])]
        k = margin.index(min(margin))
        assert cert["worst"] == rebuilt.row(k)._asdict()
        assert list(cert["worst"].values())[1:] == [cert["lhs"][k], bound[k], margin[k]]
        assert rebuilt.rho == report["outputs"]["growth"]
        assert rebuilt.all_pass is cert["all_pass"]
    return report


def _rebuilt_certificate(report: dict) -> growth.GrowthCertificate:
    """The certificate of a certify report, from its lhs and n alone."""
    lhs = report["outputs"]["certificate"]["lhs"]
    return growth.GrowthCertificate(lhs=np.array(lhs), n=report["inputs"]["n"])


def report_of(capsys, *argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == EXIT_OK, err
    return check_report(out)


def test_emit_parse_roundtrip_bytes():
    rng = np.random.default_rng(40)
    for n in (1, 3, 7, 12):
        a = rand_sym(rng, n, scale=10.0)
        text = emit_matrix(a)
        again = emit_matrix(parse_matrix(text))
        assert text == again
    ex = extremal_matrix(6, 0.4).A
    assert emit_matrix(parse_matrix(emit_matrix(ex))) == emit_matrix(ex)


def test_parse_recovers_exact_values():
    rng = np.random.default_rng(41)
    a = rand_sym(rng, 9, scale=1e6)
    b = parse_matrix(emit_matrix(a))
    assert np.array_equal(a.entries, b.entries)


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("", "line 1"),
        ("symmetric\n", "header"),
        ("sym 3\n1 2 3\n", "header"),
        ("symmetric x\n", "not an integer"),
        # int() and float() read digit-group underscores: 1_0 would be 10
        ("symmetric 1_0\n", "line 1: dimension '1_0' is not an integer"),
        ("symmetric 2\n1_0 0\n0 1\n", "line 2, column 1: '1_0' is not a number"),
        ("symmetric 0\n", ">= 1"),
        ("symmetric 2\n1 0\n", "line 3: missing row"),
        ("symmetric 2\n1 0\n0 1 2\n", "expected 2 values, got 3"),
        ("symmetric 2\n1 zebra\n0 1\n", "line 2, column 2"),
        ("symmetric 2\n1 inf\ninf 1\n", "finite"),
        # the first bad token decides, whatever kind of fault comes later in the row
        ("symmetric 2\ninf abc\n0 1\n", "line 2, column 1: entries must be finite, got inf"),
        ("symmetric 2\n1 0\n0 1\nleftover\n", "unexpected content"),
        ("symmetric 2\n1 0.5\n0.4999 1\n", "asymmetric"),
        # the symmetry tolerance is relative: this skew is twice the largest entry
        ("symmetric 2\n1e-14 1e-13\n-1e-13 1e-14\n", "asymmetric by 2.000e-13 (tolerance 1.000e-25)"),
    ],
)
def test_parse_errors(text, fragment):
    with pytest.raises(MatrixFileError) as err:
        parse_matrix(text)
    assert fragment in str(err.value)


def test_symmetry_tolerance_scales_with_the_largest_entry():
    # a one-ulp skew at 1e20, 16384 in absolute terms; the lower triangle is kept
    up = float(np.nextafter(1e20, np.inf))
    a = parse_matrix(f"symmetric 2\n1 1e20\n{up!r} 1\n")
    assert a.entries[0, 1] == a.entries[1, 0] == up


def test_cmd_factor_identity(tmp_path, capsys):
    path = tmp_path / "eye.txt"
    path.write_text(emit_matrix(SymmetricMatrix(np.eye(3))))
    rep = report_of(capsys, "factor", str(path))
    assert rep["command"] == "factor"
    assert rep["outputs"]["t_diag"] == [1.0, 1.0, 1.0]
    assert rep["outputs"]["residual"] == 0.0
    assert rep["outputs"]["permutation"] == [0, 1, 2]


def test_cmd_factor_extremal_n6(tmp_path, capsys):
    path = tmp_path / "n6.txt"
    path.write_text(emit_matrix(extremal_matrix(6, 0.4).A))
    rep = report_of(capsys, "factor", str(path))
    assert abs(rep["outputs"]["growth"] - 24.0) <= 1e-10


@pytest.mark.parametrize("source", ["tnn_n9", "seeded_n12"])
def test_cmd_factor_writes_the_strict_lower_triangle(tmp_path, capsys, source):
    if source == "tnn_n9":
        path = DATA / "tnn_n9.txt"
    else:
        path = tmp_path / "r12.txt"
        path.write_text(emit_matrix(rand_sym(np.random.default_rng(43), 12)))
    rep = report_of(capsys, "factor", str(path))
    strict = factorize(cli.read_matrix(str(path))).L.strict
    l_strict = rep["outputs"]["l_strict"]
    assert len(l_strict) == strict.shape[0]
    for i, row in enumerate(l_strict):
        assert np.array(row, dtype=float).tobytes() == strict[i, :i].tobytes()
    assert l_strict[0] == []


def test_cmd_factor_truncated_file(tmp_path, capsys):
    path = tmp_path / "bad.txt"
    path.write_text("symmetric 3\n1 0 0\n0 1 0\n")
    code, out, err = run_cli(capsys, "factor", str(path))
    assert code == EXIT_USAGE
    assert "line 4" in err


def test_cmd_certify(tmp_path, capsys):
    path = tmp_path / "n5.txt"
    path.write_text(emit_matrix(extremal_matrix(5, 0.01).A))
    rep = report_of(capsys, "certify", str(path))
    cert = rep["outputs"]["certificate"]
    assert cert["all_pass"] is True
    assert list(cert["worst"]) == list(CheckRow._fields)
    rebuilt = _rebuilt_certificate(rep)
    t55 = rebuilt.row(len(cert["lhs"]) - 1)
    assert t55.label == "t[5,5]"
    assert abs(t55.margin - 0.12) <= 1e-9


def test_cmd_certify_random(tmp_path, capsys):
    rng = np.random.default_rng(42)
    path = tmp_path / "r10.txt"
    path.write_text(emit_matrix(rand_sym(rng, 10)))
    rep = report_of(capsys, "certify", str(path))
    assert rep["outputs"]["certificate"]["all_pass"] is True


def test_cmd_lp_values(capsys):
    rep = report_of(capsys, "lp", "--n", "5")
    assert abs(rep["outputs"]["lp"]["objective"]) <= 1e-9
    assert rep["outputs"]["lp"]["tnn_bound"] == 16.0

    rep = report_of(capsys, "lp", "--n", "6")
    assert rep["outputs"]["lp"]["objective"] > 1e-9

    rep = report_of(capsys, "lp", "--n", "3")
    assert rep["outputs"]["lp"] == {"objective": 0, "point": [0, 0], "tnn_bound": 4.0}


@pytest.mark.parametrize("n", [21, 35, 40, 60])
def test_cmd_lp_past_the_float_simplex(capsys, n):
    # the float simplex this replaced called n = 21, 35 infeasible and was off at 40, 60
    lp = report_of(capsys, "lp", "--n", str(n))["outputs"]["lp"]
    assert lp["tnn_bound"] == 28.0
    assert lp["objective"] == 2 ** (n - 1) - 28
    assert "iterations" not in lp


def test_cmd_lp_exact_report(capsys):
    # the program is build_program(n), not written: the report holds its optimum
    lp = report_of(capsys, "lp", "--n", "6")["outputs"]["lp"]
    assert list(lp) == ["objective", "point", "tnn_bound"]
    assert (lp["objective"], lp["tnn_bound"]) == (4.0, 28.0)
    assert lp["point"] == [0.0, 0.0, 2.0, 2.0, 0.0]
    assert all(type(v) is int for v in (lp["objective"], *lp["point"]))


@pytest.mark.parametrize("n", [58, 100])
def test_cmd_lp_report_point_is_feasible(capsys, n):
    # the point written as doubles violated a row from n = 58 on (by 2.0 there)
    lp = report_of(capsys, "lp", "--n", str(n))["outputs"]["lp"]
    prog = lpcert.build_program(n)
    assert prog.max_violation(lp["point"]) == 0
    assert tuple(lp["point"]) == solve_lp(prog).point
    assert lp["objective"] == sum(lp["point"]) == 2 ** (n - 1) - 28


def test_cmd_lp_domain_error(capsys):
    code, out, err = run_cli(capsys, "lp", "--n", "2")
    assert code == EXIT_DOMAIN


def test_cmd_lp_solves_once(capsys, monkeypatch):
    calls = []

    def counting(prog):
        calls.append(prog.n)
        return solve_lp(prog)

    # both bindings, so a second solve through lpcert's (min_delta's) counts too
    monkeypatch.setattr(cli, "solve_lp", counting)
    monkeypatch.setattr(lpcert, "solve_lp", counting)
    for n in (6, 12, 20):
        calls.clear()
        rep = report_of(capsys, "lp", "--n", str(n))
        assert calls == [n]
        assert rep["outputs"]["lp"]["tnn_bound"] == 2 ** (n - 1) - min_delta(n)


@pytest.mark.parametrize("command", ["lp", "search"])
def test_cmd_rejects_n_past_max(command, capsys):
    # lp runs up to MAX_N; search up to 37, where one restart's round still
    # fits search.STACK_BUDGET
    code, out, err = run_cli(capsys, command, "--n", "1100")
    assert code == EXIT_DOMAIN
    assert out == ""
    limit = {"lp": 1024, "search": 37}[command]
    assert f"{command} requires 3 <= n <= {limit}, got 1100" in err


def test_huge_header_is_parse_error(tmp_path, capsys):
    path = tmp_path / "huge.txt"
    path.write_text("symmetric 1000000000\n1 0\n")
    code, out, err = run_cli(capsys, "factor", str(path))
    assert code == EXIT_USAGE
    assert "line 3: missing row 2 of 1000000000" in err


@pytest.mark.parametrize("command", ["factor", "certify"])
@pytest.mark.parametrize(
    "text",
    [
        # growth 4 after scaling by 1/1.5e308: the true T is not representable
        "symmetric 4\n"
        "1.5e308 1.5e308 1.5e308 1.5e308\n"
        "1.5e308 1.5e308 1.5e308 -1.5e308\n"
        "1.5e308 1.5e308 1.5e308 1.5e308\n"
        "1.5e308 -1.5e308 1.5e308 1.5e308\n",
        "symmetric 3\n1e308 1e308 -1e308\n1e308 1e308 1e308\n-1e308 1e308 1e308\n",
    ],
)
def test_factor_overflow_is_domain_error(tmp_path, capsys, command, text):
    path = tmp_path / "big.txt"
    path.write_text(text)
    code, out, err = run_cli(capsys, command, str(path))
    assert code == EXIT_DOMAIN
    assert out == ""
    assert "overflow" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("command", ["factor", "certify"])
@pytest.mark.parametrize(
    "text",
    [
        # n = 2 leaves L = I and T = A: L T L^T is representable, with
        # entries near the top of the double range
        "symmetric 2\n1.7e308 0\n0 -1.7e308\n",
        "symmetric 2\n1e308 1e-308\n1e-308 1\n",
        "symmetric 2\n1.7e308 1.7e308\n1.7e308 -1.7e308\n",
    ],
)
def test_factor_near_the_top_of_the_double_range(tmp_path, capsys, command, text):
    path = tmp_path / "big.txt"
    path.write_text(text)
    outputs = report_of(capsys, command, str(path))["outputs"]
    assert outputs["residual"] == 0.0
    assert outputs["growth"] == 1.0
    if command == "certify":
        assert outputs["certificate"]["all_pass"] is True


def test_cmd_examples(tmp_path, capsys):
    rep = report_of(
        capsys, "examples", "--n", "6", "--delta", "0.4", "--out", str(tmp_path)
    )
    ex = rep["outputs"]["example"]
    assert ex["expected_growth"] == 24.0
    assert abs(ex["recomputed_growth"] - 24.0) <= 1e-10
    assert ex["certificates_pass"] is True
    emitted = tmp_path / "extremal_n6_delta0.4.txt"
    assert emitted.exists()
    parsed = parse_matrix(emitted.read_text())
    assert np.array_equal(parsed.entries, extremal_matrix(6, 0.4).A.entries)


@pytest.mark.parametrize(
    "argv,key,fields",
    [
        (("examples", "--n", "4", "--delta", "0.5"), "example", 8),
        (("search", "--n", "4", "--restarts", "2", "--seed", "0"), "search", 6),
    ],
    ids=["examples", "search"],
)
def test_report_missing_a_field_fails_the_schema(tmp_path, monkeypatch, capsys, argv, key, fields):
    # every field cmd_examples and cmd_search write is required, as the lp
    # and certificate objects' fields are
    monkeypatch.chdir(tmp_path)  # examples writes its matrix file here
    rep = report_of(capsys, *argv)
    required = REPORT_SCHEMA["properties"]["outputs"]["properties"][key]["required"]
    assert sorted(rep["outputs"][key]) == sorted(required) and len(required) == fields
    for field in required:
        broken = json.loads(json.dumps(rep))
        del broken["outputs"][key][field]
        with pytest.raises(jsonschema.ValidationError, match=f"'{field}' is a required property"):
            jsonschema.validate(broken, REPORT_SCHEMA)


def test_cmd_examples_close_deltas_write_separate_files(tmp_path, capsys):
    # deltas that agree to 6 digits once shared one file name, the second
    # overwriting the first
    files = {}
    for delta in (0.4, 0.40000001):
        rep = report_of(
            capsys, "examples", "--n", "6", "--delta", repr(delta), "--out", str(tmp_path)
        )
        files[delta] = rep["outputs"]["example"]["matrix_file"]
    assert len(set(files.values())) == 2
    for delta, path in files.items():
        growth = report_of(capsys, "certify", path)["outputs"]["growth"]
        assert abs(growth - (32 - 20 * delta)) <= 1e-9


def test_cmd_examples_window_violation(tmp_path, capsys):
    code, out, err = run_cli(
        capsys, "examples", "--n", "4", "--delta", "3", "--out", str(tmp_path)
    )
    assert code == EXIT_DOMAIN
    assert "0 < delta <= 2" in err


def test_cmd_examples_degenerate_delta(tmp_path, capsys):
    # t[3,2] = 1/4 - delta/2 vanishes at delta = 1/2, and factorize then
    # recomputes growth 2, not the family's 22
    code, out, err = run_cli(
        capsys, "examples", "--n", "6", "--delta", "0.5", "--out", str(tmp_path)
    )
    assert (code, out) == (EXIT_DOMAIN, "")
    assert err == "error: delta=0.5 zeroes t[3,2], which degenerates the factors\n"
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("n", ["4", "5", "6"])
@pytest.mark.parametrize("delta", ["nan", "inf"])
def test_cmd_examples_non_finite_delta(tmp_path, capsys, n, delta):
    code, out, err = run_cli(
        capsys, "examples", "--n", n, "--delta", delta, "--out", str(tmp_path)
    )
    assert (code, out) == (EXIT_DOMAIN, "")
    assert err == f"error: delta must be a finite number, got {delta}\n"
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("n, delta", [("4", "0.5"), ("5", "0.25"), ("6", "0.4")])
def test_cmd_examples_bench_deltas_recompute_the_family(tmp_path, capsys, n, delta):
    ex = report_of(capsys, "examples", "--n", n, "--delta", delta, "--out", str(tmp_path))
    ex = ex["outputs"]["example"]
    assert ex["certificates_pass"] is True
    assert ex["growth_rel_diff"] <= GROWTH_REL_TOL


@pytest.mark.parametrize(
    "n, delta, recomputed",
    [
        # delta/2 - 1 rounds to -1.0, so the stored matrix leaves the family
        ("4", "1e-16", 2.0),
        # next to the degenerate delta = 1/2, rounding breaks the family's ties
        ("6", "0.499999999999", 6.497),
    ],
)
def test_cmd_examples_fails_when_the_recomputed_growth_misses(
    tmp_path, capsys, n, delta, recomputed
):
    # both certificates pass, so only the growth check fails the verdict
    code, out, err = run_cli(capsys, "examples", "--n", n, "--delta", delta, "--out", str(tmp_path))
    assert (code, err) == (EXIT_INTERNAL, "")
    report = check_report(out)
    ex = report["outputs"]["example"]
    assert report["status"] == "invariant-violation"
    assert ex["certificates_pass"] is True
    assert abs(ex["recomputed_growth"] - recomputed) <= 1e-3
    rel = abs(ex["recomputed_growth"] - ex["expected_growth"]) / ex["expected_growth"]
    assert ex["growth_rel_diff"] == rel > GROWTH_REL_TOL


def test_cmd_examples_n5_midpoint(tmp_path, capsys):
    rep = report_of(
        capsys, "examples", "--n", "5", "--delta", "0.5", "--out", str(tmp_path)
    )
    assert rep["outputs"]["example"]["expected_growth"] == 10.0


def test_cmd_search_warm(tmp_path, capsys):
    path = tmp_path / "warm4.txt"
    path.write_text(emit_matrix(extremal_matrix(4, 0.05).A))
    rep = report_of(
        capsys, "search", "--n", "4", "--restarts", "1", "--warm", str(path)
    )
    s = rep["outputs"]["search"]
    assert s["best_growth"] >= 7.9 - 1e-9
    assert s["bound"] == 8.0
    assert s["gap"] == s["bound"] - s["best_growth"]


def test_cmd_search_deterministic(capsys):
    a = report_of(capsys, "search", "--n", "3", "--restarts", "2", "--seed", "9")
    b = report_of(capsys, "search", "--n", "3", "--restarts", "2", "--seed", "9")
    assert a == b


def test_cmd_search_bad_n(capsys):
    code, out, err = run_cli(capsys, "search", "--n", "2")
    assert code == EXIT_DOMAIN


def test_cmd_search_n_past_the_stack_budget(capsys):
    # n = 38 is the first n whose one-restart round does not fit one stack;
    # SearchConfig checks n before its other fields
    code, out, err = run_cli(capsys, "search", "--n", "38", "--restarts", "0")
    assert (code, out) == (EXIT_DOMAIN, "")
    assert err == "error: search requires 3 <= n <= 37, got 38\n"


def test_cmd_search_negative_seed(capsys):
    # numpy's own message ("expected non-negative integer") does not name the seed
    code, out, err = run_cli(capsys, "search", "--n", "4", "--seed", "-1")
    assert code == EXIT_USAGE
    assert out == ""
    assert "seed must be >= 0, got -1" in err


def test_usage_errors(capsys):
    code, _, _ = run_cli(capsys, "factor")  # missing input path
    assert code == EXIT_USAGE
    code, _, _ = run_cli(capsys, "lp", "--n", "five")
    assert code == EXIT_USAGE
    code, _, _ = run_cli(capsys, "unknown-command")
    assert code == EXIT_USAGE
    code, _, err = run_cli(capsys, "factor", "m.txt", "--rule", "first")
    assert code == EXIT_USAGE
    assert "unrecognized arguments" in err


def test_missing_file(capsys):
    code, out, err = run_cli(capsys, "factor", "/does/not/exist.txt")
    assert code == EXIT_USAGE
    assert "cannot read" in err


def test_utf8_file_with_byte_order_mark(tmp_path, capsys):
    # some editors save UTF-8 with a byte-order mark; it is not part of the header
    path = tmp_path / "bom.txt"
    path.write_bytes(b"\xef\xbb\xbfsymmetric 2\n1 0\n0 1\n")
    assert cli.read_matrix(str(path)).entries.tobytes() == np.eye(2).tobytes()
    rep = report_of(capsys, "factor", str(path))
    assert rep["outputs"]["permutation"] == [0, 1]
    assert rep["outputs"]["t_diag"] == [1.0, 1.0]
    # after the mark, a byte that is not UTF-8 is the usual decode error,
    # with the byte's offset in the file
    path.write_bytes(b"\xef\xbb\xbfsymmetric 1\n\xff\n")
    with pytest.raises(MatrixFileError) as e:
        cli.read_matrix(str(path))
    message = f"cannot read {path}: 'utf-8' codec can't decode byte 0xff in position 15"
    assert str(e.value).startswith(message)


def test_non_utf8_file(tmp_path, capsys):
    path = tmp_path / "latin1.txt"
    path.write_bytes(b"symmetric 1\n\xff\n")
    with pytest.raises(MatrixFileError) as e:
        cli.read_matrix(str(path))
    assert str(e.value).startswith(f"cannot read {path}: 'utf-8' codec can't decode")
    code, out, err = run_cli(capsys, "factor", str(path))
    assert code == EXIT_USAGE
    assert out == ""
    assert err.startswith(f"error: cannot read {path}: ")


@pytest.mark.parametrize("command", ["lp", "factor"])
def test_out_in_missing_directory(tmp_path, capsys, command):
    matrix = tmp_path / "n4.txt"
    matrix.write_text(emit_matrix(extremal_matrix(4, 0.5).A))
    dest = tmp_path / "missing" / "report.json"
    argv = ["lp", "--n", "6"] if command == "lp" else ["factor", str(matrix)]
    code, out, err = run_cli(capsys, *argv, "--out", str(dest))
    assert code == EXIT_USAGE
    assert out == ""
    assert err.startswith(f"error: cannot write {dest}: ")
    assert "No such file or directory" in err
    assert not dest.parent.exists()


def test_examples_out_is_a_file(tmp_path, capsys):
    dest = tmp_path / "taken"
    dest.write_text("")
    code, out, err = run_cli(capsys, "examples", "--n", "4", "--delta", "0.5", "--out", str(dest))
    assert code == EXIT_USAGE
    assert out == ""
    assert err.startswith(f"error: cannot write {dest / 'extremal_n4_delta0.5.txt'}: ")
    assert "File exists" in err


def test_zero_matrix_certify_domain_error(tmp_path, capsys):
    path = tmp_path / "zero.txt"
    path.write_text(emit_matrix(SymmetricMatrix(np.zeros((3, 3)))))
    code, out, err = run_cli(capsys, "certify", str(path))
    assert code == EXIT_DOMAIN


def test_zero_matrix_factor_ok(tmp_path, capsys):
    path = tmp_path / "zero.txt"
    path.write_text(emit_matrix(SymmetricMatrix(np.zeros((3, 3)))))
    rep = report_of(capsys, "factor", str(path))
    assert "growth" not in rep["outputs"]
    assert rep["outputs"]["residual"] == 0.0


def test_report_out_flag(tmp_path, capsys):
    dest = tmp_path / "report.json"
    code, out, err = run_cli(capsys, "lp", "--n", "4", "--out", str(dest))
    assert code == EXIT_OK
    assert out == ""
    rep = json.loads(dest.read_text())
    jsonschema.validate(rep, REPORT_SCHEMA)


@pytest.mark.parametrize("command", ["factor", "certify", "lp", "examples", "search"])
def test_report_is_one_line(tmp_path, capsys, command):
    path = tmp_path / "n6.txt"
    path.write_text(emit_matrix(extremal_matrix(6, 0.4).A))
    argv = {
        "factor": ["factor", str(path)],
        "certify": ["certify", str(path)],
        "lp": ["lp", "--n", "6"],
        "examples": ["examples", "--n", "6", "--delta", "0.4", "--out", str(tmp_path)],
        "search": ["search", "--n", "3", "--restarts", "1"],
    }[command]
    code, out, err = run_cli(capsys, *argv)
    assert code == EXIT_OK, err
    assert out.endswith("\n") and out.count("\n") == 1
    check_report(out)


def test_certify_out_file_matches_stdout(tmp_path, capsys):
    path = tmp_path / "n6.txt"
    path.write_text(emit_matrix(extremal_matrix(6, 0.4).A))
    dest = tmp_path / "report.json"
    _, stdout, _ = run_cli(capsys, "certify", str(path))
    code, out, err = run_cli(capsys, "certify", str(path), "--out", str(dest))
    assert code == EXIT_OK, err
    assert out == ""
    assert dest.read_text() == stdout


def test_certify_report_matches_oracle(tmp_path, capsys):
    a = extremal_matrix(6, 0.4).A
    path = tmp_path / "n6.txt"
    path.write_text(emit_matrix(a))
    rep = report_of(capsys, "certify", str(path))
    f = factorize(a)
    rows = certificate_rows_scalar(a, f)
    worst = min(rows, key=lambda row: row[3])  # the first on ties
    assert rep["outputs"]["certificate"] == {
        "lhs": [row[1] for row in rows],
        "worst": CheckRow(*worst)._asdict(),
        "all_pass": all(row[3] >= -MARGIN_TOL for row in rows),
    }
    assert rep["outputs"]["growth"] == growth_factor(a, f)


def test_write_report_rejects_nan(capsys):
    with pytest.raises(ValueError):
        cli._write_report("factor", {"n": 1}, {"residual": float("nan")}, None)
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("command", ["certify", "examples"])
def test_failing_certificate_exits_3_with_a_report(tmp_path, capsys, monkeypatch, command):
    # MARGIN_TOL = -1 asks every row for a margin of at least 1, which rows of
    # the n = 6, delta = 0.4 certificates do not have
    monkeypatch.setattr(growth, "MARGIN_TOL", -1.0)
    path = tmp_path / "n6.txt"
    path.write_text(emit_matrix(extremal_matrix(6, 0.4).A))
    argv, section, verdict = {
        "certify": (["certify", str(path)], "certificate", "all_pass"),
        "examples": (
            ["examples", "--n", "6", "--delta", "0.4", "--out", str(tmp_path)],
            "example",
            "certificates_pass",
        ),
    }[command]
    code, out, err = run_cli(capsys, *argv)
    assert (code, err) == (EXIT_INTERNAL, "")
    report = check_report(out)
    assert report["status"] == "invariant-violation"
    assert report["outputs"][section][verdict] is False


def test_module_entrypoint_subprocess(tmp_path):
    path = tmp_path / "m.txt"
    path.write_text(emit_matrix(extremal_matrix(4, 0.5).A))
    proc = subprocess.run(
        [sys.executable, "-m", "ltlt.cli", "factor", str(path)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    rep = json.loads(proc.stdout)
    assert abs(rep["outputs"]["growth"] - 7.0) <= 1e-10


def run_python(code):
    return subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=120)


@pytest.mark.parametrize(
    "code",
    [
        "import ltlt",
        "import ltlt.cli",
        "from ltlt import cli; assert cli.main(['lp', '--n', '30']) == 0",
        "from ltlt import cli; assert cli.main(['lp', '--n', 'five']) == 1",
    ],
)
def test_lp_path_imports_no_numpy(code):
    proc = run_python(code + "; import sys; assert 'numpy' not in sys.modules, 'numpy loaded'")
    assert proc.returncode == 0, proc.stderr


def test_lazy_namespace_resolves_every_name():
    proc = run_python(
        "import importlib, ltlt\n"
        "from ltlt import aasen\n"
        "from ltlt import factorize\n"
        "assert factorize is aasen.factorize and ltlt.aasen is aasen\n"
        "for name, module in ltlt._SOURCE.items():\n"
        "    assert getattr(ltlt, name) is getattr(importlib.import_module('ltlt.' + module), name)\n"
        "assert set(ltlt.__all__) == set(ltlt._SOURCE) <= set(dir(ltlt))\n"
        "assert not hasattr(ltlt, 'no_such_name')\n"
    )
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize(
    "argv,message",
    [
        (
            ["examples", "--n", "6", "--delta", "0.1", "--out", "{tmp}"],
            "error: delta=0.1 outside the n=6 window 2/5 <= delta <= 4/5 "
            "(entry a[4,4] = 5*delta - 3 must stay in [-1, 1])\n",
        ),
        (["certify", "{tmp}/zero.txt"], "error: certificate is undefined for the zero matrix\n"),
    ],
)
def test_domain_errors_from_lazily_imported_modules(tmp_path, argv, message):
    # DeltaWindowError and UndefinedGrowthError come from modules cli imports
    # inside the command; main maps them to exit 2 through ltlt.DomainError
    (tmp_path / "zero.txt").write_text("symmetric 3\n0 0 0\n0 0 0\n0 0 0\n")
    argv = [a.format(tmp=tmp_path) for a in argv]
    proc = subprocess.run(
        [sys.executable, "-m", "ltlt.cli", *argv], capture_output=True, text=True, timeout=120
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (EXIT_DOMAIN, "", message)


@pytest.mark.parametrize(
    "argv",
    [
        ["factor", "/no/such/file"],
        ["certify", "{tmp}/headerless.txt"],
        ["factor", "{tmp}/short.txt"],
        ["search", "--n", "4", "--warm", "{tmp}/non_utf8.txt"],
    ],
)
def test_unreadable_input_imports_no_numpy(tmp_path, argv):
    # factor, certify and search --warm read and parse the file before the
    # numerical modules load
    (tmp_path / "headerless.txt").write_text("1 0\n0 1\n")
    (tmp_path / "short.txt").write_text("symmetric 3\n1 0 0\n")
    (tmp_path / "non_utf8.txt").write_bytes(b"symmetric 1\n\xff\n")
    argv = [a.format(tmp=tmp_path) for a in argv]
    proc = run_python(
        f"import sys; from ltlt import cli; code = cli.main({argv!r}); "
        "print('numpy' in sys.modules); sys.exit(code)"
    )
    assert (proc.returncode, proc.stdout) == (EXIT_USAGE, "False\n"), proc.stderr
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1


def test_lp_path_imports_no_dataclasses():
    # lpcert's records are NamedTuples, so `ltlt lp` loads neither dataclasses
    # nor inspect, which dataclasses imports
    proc = run_python(
        "import sys; from ltlt import cli; assert cli.main(['lp', '--n', '30']) == 0; "
        "sys.stdout.flush(); sys.stderr.write(repr(sorted({'dataclasses', 'inspect'} & set(sys.modules))))"
    )
    assert (proc.returncode, proc.stderr) == (0, "[]"), proc.stderr
