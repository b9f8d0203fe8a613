import json
import subprocess
import sys

import jsonschema
import numpy as np
import pytest

from _helpers import rand_sym
from ltlt import cli, lpcert
from ltlt.cli import (
    EXIT_DOMAIN,
    EXIT_OK,
    EXIT_USAGE,
    MatrixFileError,
    REPORT_SCHEMA,
    emit_matrix,
    main,
    parse_matrix,
)
from ltlt.extremal import extremal_matrix
from ltlt.lpcert import solve_lp, tnn_upper_bound
from ltlt.matcore import SymmetricMatrix


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def report_of(capsys, *argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == EXIT_OK, err
    report = json.loads(out)
    jsonschema.validate(report, REPORT_SCHEMA)
    assert report["schema_version"] == "2"
    assert "rule" not in report["inputs"]
    return report


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
        ("symmetric 0\n", ">= 1"),
        ("symmetric 2\n1 0\n", "line 3: missing row"),
        ("symmetric 2\n1 0\n0 1 2\n", "expected 2 values, got 3"),
        ("symmetric 2\n1 zebra\n0 1\n", "line 2, column 2"),
        ("symmetric 2\n1 inf\ninf 1\n", "finite"),
        ("symmetric 2\n1 0\n0 1\nleftover\n", "unexpected content"),
        ("symmetric 2\n1 0.5\n0.4999 1\n", "asymmetric"),
    ],
)
def test_parse_errors(text, fragment):
    with pytest.raises(MatrixFileError) as err:
        parse_matrix(text)
    assert fragment in str(err.value)


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
    t55 = next(r for r in cert["rows"] if r["label"] == "t[5,5]")
    assert abs(t55["margin"] - 0.12) <= 1e-9


def test_cmd_certify_random(tmp_path, capsys):
    rng = np.random.default_rng(42)
    path = tmp_path / "r10.txt"
    path.write_text(emit_matrix(rand_sym(rng, 10)))
    rep = report_of(capsys, "certify", str(path))
    assert rep["outputs"]["certificate"]["all_pass"] is True


def test_cmd_lp_values(capsys):
    rep = report_of(capsys, "lp", "--n", "5")
    assert abs(rep["outputs"]["lp"]["objective"]) <= 1e-9
    assert rep["outputs"]["lp"]["bound_not_tight"] is False
    assert rep["outputs"]["lp"]["tnn_bound"] == 16.0

    rep = report_of(capsys, "lp", "--n", "6")
    assert rep["outputs"]["lp"]["objective"] > 1e-9
    assert rep["outputs"]["lp"]["bound_not_tight"] is True

    rep = report_of(capsys, "lp", "--n", "3")
    assert abs(rep["outputs"]["lp"]["objective"]) <= 1e-9
    assert all(r["label"].startswith("box") for r in rep["outputs"]["lp"]["rows"])


def test_cmd_lp_domain_error(capsys):
    code, out, err = run_cli(capsys, "lp", "--n", "2")
    assert code == EXIT_DOMAIN


def test_cmd_lp_solves_once(capsys, monkeypatch):
    calls = []

    def counting(prog):
        calls.append(prog.n)
        return solve_lp(prog)

    # both bindings: tnn_upper_bound solves through the lpcert one
    monkeypatch.setattr(cli, "solve_lp", counting)
    monkeypatch.setattr(lpcert, "solve_lp", counting)
    for n in (6, 12, 20):
        calls.clear()
        rep = report_of(capsys, "lp", "--n", str(n))
        assert calls == [n]
        assert rep["outputs"]["lp"]["tnn_bound"] == tnn_upper_bound(n)


@pytest.mark.parametrize("command", ["lp", "search"])
def test_cmd_rejects_n_past_max(command, capsys):
    code, out, err = run_cli(capsys, command, "--n", "1100")
    assert code == EXIT_DOMAIN
    assert out == ""
    assert "n <= 1024, got 1100" in err


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


def test_cmd_examples_window_violation(tmp_path, capsys):
    code, out, err = run_cli(
        capsys, "examples", "--n", "4", "--delta", "3", "--out", str(tmp_path)
    )
    assert code == EXIT_DOMAIN
    assert "0 < delta <= 2" in err


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
