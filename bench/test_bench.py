"""Tests of the benchmark itself: tampered outputs fail, counts repeat.

    python3 -m pytest -q bench/test_bench.py
"""
import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import workloads  # noqa: E402

EXACT_COUNTS = ("search.evals", "lpcert.iterations", "lpcert.solve_lp.calls", "matcore.validate.calls")


def _workload(cls, tmp_path):
    return cls(7, tmp_path, run.child_env(), in_process=True)


def _tampered(wl, change):
    real = wl.run
    wl.run = lambda inp: change(inp, real(inp))
    return wl


def test_untampered_outputs_pass(tmp_path):
    for cls in (workloads.SearchSmall, workloads.DenseLarge, workloads.CliMix):
        wl = _workload(cls, tmp_path)
        wl.setup()
        res = run.measure(wl, 0.0)
        assert len(res["lat"]) == wl.ops
        assert res["runs"] == run.REPEATS * wl.ops
        assert res["problems"] == []


def test_wrong_search_outcome_is_a_failure(tmp_path):
    wl = _tampered(
        _workload(workloads.SearchSmall, tmp_path),
        lambda inp, out: dataclasses.replace(out, best_growth=out.best_growth * (1 + 1e-9)),
    )
    res = run.measure(wl, 0.0)
    assert len(res["problems"]) == res["runs"] == run.REPEATS * wl.ops


def test_wrong_residual_is_a_failure(tmp_path):
    wl = _tampered(
        _workload(workloads.DenseLarge, tmp_path),
        lambda inp, out: (out[0], out[1], 1e-3, out[3]),
    )
    res = run.measure(wl, 0.0)
    assert len(res["problems"]) == res["runs"] == run.REPEATS * wl.ops
    assert all("relative residual" in p["problems"][0] for p in res["problems"])


def _add_key(inp, out):
    rc, stdout, stderr = out
    report = json.loads(stdout)
    report["outputs"]["unexpected"] = 1
    return rc, json.dumps(report), stderr


def _move_lp_point(inp, out):
    rc, stdout, stderr = out
    report = json.loads(stdout)
    if inp[0] == "lp":
        report["outputs"]["lp"]["point"] = [v + 3.0 for v in report["outputs"]["lp"]["point"]]
    return rc, json.dumps(report), stderr


@pytest.mark.parametrize("change, failing, text", [
    (_add_key, 11, "fails the schema"),
    (lambda inp, out: (3, *out[1:]), 11, "exit code 3"),
    (_move_lp_point, 4, "violates a row"),
])
def test_bad_cli_result_is_a_failure(tmp_path, change, failing, text):
    wl = _workload(workloads.CliMix, tmp_path)
    wl.setup()
    res = run.measure(_tampered(wl, change), 0.0)
    assert len(res["lat"]) == wl.ops
    assert len(res["problems"]) == run.REPEATS * wl.cycles * failing
    assert all(text in p["problems"][0] for p in res["problems"])


def test_tail_has_ten_samples_beyond_it():
    value, pct, beyond = run.tail([float(i) for i in range(1, 101)])
    assert (value, pct, beyond) == (90.0, 90.0, 10)


def _traced(workload: str, cwd: Path) -> dict:
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "5",
         "--seconds", "0.1", "--trace", "1"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_exact_counts_repeat(workload):
    first, second = _traced(workload, ROOT), _traced(workload, ROOT)
    assert first["correct"] and second["correct"]
    calls = [k for k in first["metrics"] if k.endswith(".calls")]
    for name in EXACT_COUNTS + tuple(calls):
        assert first["metrics"][name] == second["metrics"][name], name


def test_fails_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    if (ROOT / "BENCHMARK.json").is_file():
        shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "search-small", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
