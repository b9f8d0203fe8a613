"""Benchmark for the ltlt package: end-to-end metrics, or per-module traced timings.

Run from the repository root:

    python3 bench/run.py --workload search-small --seed 1 --seconds 50 --trace 0
    python3 bench/run.py --workload matrix-mix --seed 1 --seconds 50 --trace 1

The package is imported from ``src/`` next to this directory, never from an
installed copy; without it the script exits with code 2 and prints no
result.  The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  See README.md.
"""
from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter

# Set to 1 in main() before numpy loads, for single-threaded BLAS in this
# process and in every child it starts.
BLAS_THREAD_VARS = (
    "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"
SETUP_REPS = 5
PROBE_REPS = 5
TAIL_BEYOND = 10
REPEATS = 3

END_TO_END = {  # name: (unit, better)
    "setup_s": ("s", "lower"),
    "ops_per_s": ("1/s", "higher"),
    "op_p50_ms": ("ms", "lower"),
    "op_tail_ms": ("ms", "lower"),
    "ok_ratio": ("ratio", "higher"),
    "peak_rss_mb": ("MB", "lower"),
    "growth_ratio": ("ratio", "higher"),
}


def _die(msg: str):
    print(f"bench: {msg}", file=sys.stderr)
    sys.exit(2)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def host_probe_ms() -> list:
    """A fixed pure-Python loop that does not touch ltlt, timed PROBE_REPS times."""
    times = []
    for _ in range(PROBE_REPS):
        t0 = perf_counter()
        acc = 0
        for i in range(200_000):
            acc += i * i % 7
        times.append((perf_counter() - t0) * 1e3)
    return times


def environment(args) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    commit = None
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        commit = head.read_text().strip()
        if commit.startswith("ref: "):
            ref = ROOT / ".git" / commit[5:]
            commit = ref.read_text().strip() if ref.is_file() else None
    digest = hashlib.sha256()
    for path in sorted((SRC / "ltlt").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "commit": commit,
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": {v: os.environ[v] for v in BLAS_THREAD_VARS},
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
    }


@contextmanager
def on_cpu(i: int):
    """Pin this process, and the children it starts, to the i-th CPU it may use.

    The vCPUs of a shared host are slowed by other tenants independently of
    each other, so repeated measurements alternate between them.
    """
    cpus = sorted(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpus[i % len(cpus)]})
    try:
        yield
    finally:
        os.sched_setaffinity(0, cpus)


def run_setup(wl) -> tuple:
    """SETUP_REPS times: a fresh interpreter importing ltlt.cli, input
    generation and file writing, and one warm-up op that is not among the
    measured ops.  Returns the median repetition time and the import times."""
    reps, imports = [], []
    for rep in range(SETUP_REPS):
        with on_cpu(rep):
            t0 = perf_counter()
            subprocess.run([sys.executable, "-c", "import ltlt.cli"], env=wl.env, check=True, timeout=120)
            imports.append(perf_counter() - t0)
            wl.setup()
            reps.append(perf_counter() - t0)
    return statistics.median(reps), imports


def _new_result() -> dict:
    gc.collect()
    return {"lat": [], "untraced_lat": [], "busy": 0.0, "runs": 0, "problems": [], "ratios": [], "evals": 0}


def _timed_op(wl, k: int, inp, res: dict, tracer=None) -> float:
    """Run op ``k`` once, check its output, and return its latency."""
    if tracer is not None:
        tracer.op = k
    t0 = perf_counter()
    try:
        out, err = wl.run(inp), None
    except Exception as e:  # a failed op is counted, and the loop goes on
        where = traceback.extract_tb(e.__traceback__)[-1]
        out, err = None, f"{type(e).__name__}: {e} (at {where.filename}:{where.lineno})"
    dt = perf_counter() - t0
    res["runs"] += 1
    res["busy"] += dt
    if tracer is not None:
        tracer.op = None
    found = [err] if err else wl.check(inp, out)
    if found:
        res["problems"].append({"op": k, "input": repr(inp)[:200], "problems": found})
    else:
        res["evals"] += wl.evals(out)
        ratio = wl.growth_ratio(inp, out)
        if ratio is not None:
            res["ratios"].append(ratio)
    return dt


def measure(wl, seconds: float) -> dict:
    """Closed loop, one client: each op starts when the previous one is checked.

    The workload's ``ops`` ops (whole rotation cycles, made from the seed
    alone) run in passes, each pass on the next CPU, until there have been
    at least REPEATS passes and ``seconds`` of op time.  An op's latency is
    the fastest run of it, or of any op with the same ``wl.key``.  On a
    shared host the same op runs up to 2x slower for seconds at a time, on
    each vCPU independently; a pass takes a few seconds, so the runs of one
    op are spread over the whole measurement and rarely all fall in such a
    period.  Input generation and output checks are outside the timed region.
    """
    res = _new_result()
    best: dict = {}
    passes = 0
    while passes < REPEATS or res["busy"] < seconds:
        with on_cpu(passes):
            for k in range(wl.ops):
                dt = _timed_op(wl, k, wl.prepare(k), res)
                key = wl.key(k)
                best[key] = min(best.get(key, dt), dt)
        passes += 1
    res["lat"] = [best[wl.key(k)] for k in range(wl.ops)]
    res["passes"] = passes
    return res


def measure_traced(wl, tracer) -> dict:
    """The first ``wl.trace_cycles`` cycles, each op untraced and then traced
    on the same input, so that host speed and warm caches match."""
    res = _new_result()
    for k in range(wl.trace_cycles * wl.cycle):
        inp = wl.prepare(k)
        res["untraced_lat"].append(_timed_op(wl, k, inp, res))
        res["lat"].append(_timed_op(wl, k, inp, res, tracer))
    return res


def tail(lat: list) -> tuple:
    """Latency at the highest percentile with TAIL_BEYOND samples beyond it."""
    s = sorted(lat)
    rank = max(len(s) - TAIL_BEYOND, 1)
    return s[rank - 1], 100.0 * rank / len(s), len(s) - rank


def end_to_end(res: dict, setup_s: float) -> tuple:
    lat = res["lat"]
    tail_ms, pct, beyond = tail(lat)
    failed, runs = len(res["problems"]), res["runs"]
    values = {
        "setup_s": setup_s,
        "ops_per_s": len(lat) / sum(lat),
        "op_p50_ms": statistics.median(lat) * 1e3,
        "op_tail_ms": tail_ms * 1e3,
        "ok_ratio": (runs - failed) / runs,
        "peak_rss_mb": max(resource.getrusage(who).ru_maxrss
                           for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)) / 1024.0,
        "growth_ratio": statistics.fmean(res["ratios"]) if res["ratios"] else 0.0,
    }
    notes = {
        "ops_per_s": f"{len(lat)} ops, fastest of {res['passes']} passes each",
        "op_tail_ms": f"p{pct:.2f} of {len(lat)} ops, {beyond} beyond it",
        "ok_ratio": f"fail_ratio {failed / runs:.4g} ({failed} of {runs} runs)",
        "peak_rss_mb": "the larger of this process's peak and its largest child's",
    }
    metrics = {k: {"value": v, "unit": END_TO_END[k][0]} for k, v in values.items()}
    return metrics, notes


def per_layer(untraced: dict, traced: dict, tracer, imports: list, probe: list) -> dict:
    m = {}
    for name, (calls, total_ms, self_ms) in tracer.layer_totals().items():
        m[f"{name}.calls"] = (calls, "count")
        m[f"{name}.total_ms"] = (total_ms, "ms")
        m[f"{name}.self_ms"] = (self_ms, "ms")
    evals = untraced["evals"]
    m["search.evals"] = (tracer.counters["search.evals"], "count")
    m["search.us_per_eval"] = (untraced["busy"] / evals * 1e6 if evals else 0.0, "us")
    m["lpcert.iterations"] = (tracer.counters["lpcert.iterations"], "count")
    m["cli.startup_ms"] = (statistics.median(imports) * 1e3, "ms")
    for n in (50, 200, 500):
        m[f"aasen.factorize.n{n}.ms_per_call"] = (tracer.ms_per_call("aasen.factorize", n), "ms")
        m[f"growth.growth_certificate.n{n}.ms_per_call"] = (
            tracer.ms_per_call("growth.growth_certificate", n), "ms")
    m["trace.overhead_ratio"] = (sum(traced["lat"]) / sum(traced["untraced_lat"]), "ratio")
    m["host.probe_ms"] = (statistics.median(probe), "ms")
    return {k: {"value": v, "unit": u} for k, (v, u) in m.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"

    if not (SRC / "ltlt" / "__init__.py").is_file():
        _die(f"no ltlt sources at {SRC}; run from a checkout of the repository")
    sys.path.insert(0, str(SRC))
    from tracing import Tracer
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        _die(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")

    env = environment(args)
    print("# env " + json.dumps(env), flush=True)
    OUT_DIR.mkdir(exist_ok=True)
    workdir = OUT_DIR / f"work-{args.workload}-{os.getpid()}"
    workdir.mkdir()
    try:
        # The traced run executes every op in this process, the CLI commands included.
        wl = WORKLOADS[args.workload](args.seed, workdir, child_env(), in_process=bool(args.trace))
        probe = host_probe_ms()
        setup_s, imports = run_setup(wl)
        untraced = measure(wl, args.seconds)
        runs = [untraced]
        notes = {}
        if args.trace:
            tracer = Tracer()
            with tracer.installed():
                runs.append(measure_traced(wl, tracer))
        probe += host_probe_ms()
        if args.trace:
            metrics = per_layer(untraced, runs[1], tracer, imports, probe)
            tracer.write(OUT_DIR / f"{args.workload}-spans.jsonl", env)
        else:
            metrics, notes = end_to_end(untraced, setup_s)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    problems = [p for r in runs for p in r["problems"]]
    attempted = sum(r["runs"] for r in runs)
    summary = {
        "env": env,
        "host.probe_ms": statistics.median(probe),
        "notes": notes,
        "failures": problems[:20],
        "metrics": metrics,
    }
    (OUT_DIR / f"{args.workload}-trace{args.trace}.json").write_text(json.dumps(summary, indent=1) + "\n")
    print(f"# host.probe_ms {statistics.median(probe):.3f}")
    for name, m in metrics.items():
        better = END_TO_END[name][1] + " is better" if name in END_TO_END else ""
        print(f"# {name:48s} {m['value']:14.6g} {m['unit']:6s} {better:17s} {notes.get(name, '')}")
    for p in problems[:5]:
        print(f"# FAILED op {p['op']} {p['input']}: {'; '.join(p['problems'])}")
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": len(problems),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
