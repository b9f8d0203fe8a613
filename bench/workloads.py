"""The workloads and their parts: input generation, one operation, output checks.

Every workload is a fixed rotation of ``cycle`` operations; operation ``k``
gets its inputs from the workload seed and ``k`` alone.  ``run`` is the
timed part.  ``check`` returns a list of problems, empty when the output is
correct, and every problem makes the operation count as failed.  ``growth_ratio``
is the growth factor the operation produced divided by 2^(n-1), or None.

The modules are called through their module attributes (``aasen.factorize``
rather than an imported name) so that the tracer's wrappers see the calls.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import subprocess
import sys
from pathlib import Path

import jsonschema
import numpy as np
from ltlt import aasen, cli, growth, lpcert, matcore, search

# One search operation runs at most this many sweeps.  With the default
# 2000, about 1 % of single-restart searches never converge and run 30-60x
# the median cost, and converged searches differ 2-3x in cost, so a run of
# ~100 operations spread by 10-20 % from seed to seed.  At 12 sweeps nearly
# every start uses its whole budget, and an op is short enough for each of
# the 48 ops of a run to be timed about ten times.
SEARCH_SWEEPS = 12

# Fixed tolerances for the dense checks: the relative residual
# max|PAP^T - LTL^T| / max|a| and the normwise backward error of the solve,
# both ~1e-14 or below at n = 500 for entries in [-1, 1].
RESIDUAL_TOL = 1e-10
BACKWARD_TOL = 1e-12


def _rng(seed: int, *key: int) -> np.random.Generator:
    return np.random.default_rng([seed, *key])


def _symmetric(rng: np.random.Generator, n: int) -> np.ndarray:
    a = rng.uniform(-1.0, 1.0, (n, n))
    return np.tril(a) + np.tril(a, -1).T


class Workload:
    """A rotation of ``cycle`` ops.  ``cycles`` rotations make the ops of the
    measured run and ``trace_cycles`` those of the traced run."""

    name = ""
    cycle = 1
    cycles = 1
    trace_cycles = 1

    def __init__(self, seed: int, workdir: Path, env: dict, in_process: bool):
        self.seed = seed
        self.workdir = workdir
        self.env = env
        self.in_process = in_process

    @property
    def ops(self) -> int:
        return self.cycle * self.cycles

    def key(self, k: int):
        """Ops with equal keys are the same op with the same inputs."""
        return k

    def setup(self):
        """Generate and write the inputs that ops share; run one warm-up op."""
        self.run(self.prepare(0))

    def evals(self, out) -> int:
        return 0


class SearchSmall(Workload):
    """The paper's direct search: one restart per op, n rotating 4, 5, 6."""

    name = "search-small"
    cycle = 3
    cycles = 16
    trace_cycles = 3

    def prepare(self, k: int):
        n = (4, 5, 6)[k % 3]
        s = int(np.random.SeedSequence([self.seed, k]).generate_state(1)[0])
        return n, s

    def run(self, inp):
        n, s = inp
        return search.maximize_growth(
            search.SearchConfig(n=n, restarts=1, seed=s, max_iters=SEARCH_SWEEPS)
        )

    def evals(self, out) -> int:
        return out.evaluations

    def check(self, inp, out) -> list:
        n, _ = inp
        problems = []
        best = out.best_matrix
        if search.evaluate_candidate(best) != out.best_growth:
            problems.append("recomputed growth differs from best_growth")
        if not out.best_growth <= 2.0 ** (n - 1) * (1.0 + growth.MARGIN_TOL):
            problems.append(f"best_growth {out.best_growth} exceeds 2^(n-1)")
        if matcore.max_abs(best) > 1.0:
            problems.append("best matrix has an entry outside [-1, 1]")
        if not growth.growth_certificate(best, aasen.factorize(best)).all_pass:
            problems.append("certificate of the best matrix fails")
        return problems

    def growth_ratio(self, inp, out):
        return out.best_growth / 2.0 ** (inp[0] - 1)


class DenseLarge(Workload):
    """factorize, certificate, residual and solve on one matrix, n = 50, 200, 500."""

    name = "dense-large"
    cycle = 3

    def prepare(self, k: int):
        n = (50, 200, 500)[k % 3]
        rng = _rng(self.seed, k)
        a = matcore.SymmetricMatrix(_symmetric(rng, n))
        return a, rng.uniform(-1.0, 1.0, n)

    def run(self, inp):
        a, b = inp
        f = aasen.factorize(a)
        cert = growth.growth_certificate(a, f)
        res = matcore.residual(a, f.p, f.L, f.T)
        return f, cert, res, aasen.solve(f, b)

    def check(self, inp, out) -> list:
        (a, b), (f, cert, res, x) = inp, out
        problems = []
        if f.L.strict.size and np.max(np.abs(f.L.strict)) > 1.0:
            problems.append("a multiplier exceeds 1 in magnitude")
        rel = res / matcore.max_abs(a)
        if not rel <= RESIDUAL_TOL:
            problems.append(f"relative residual {rel:.3e} > {RESIDUAL_TOL:g}")
        e = a.entries
        bwd = np.max(np.abs(b - e @ x)) / (
            np.max(np.sum(np.abs(e), axis=1)) * np.max(np.abs(x)) + np.max(np.abs(b))
        )
        if not bwd <= BACKWARD_TOL:
            problems.append(f"solve backward error {bwd:.3e} > {BACKWARD_TOL:g}")
        if not cert.all_pass:
            problems.append("certificate fails")
        return problems

    def growth_ratio(self, inp, out):
        return out[1].rho / 2.0 ** (inp[0].n - 1)


class CliMix(Workload):
    """One ``ltlt`` command per op, in a fixed rotation of eleven.

    Each rotation reads its own seeded n = 200 file; the other nine commands
    are the same in every rotation, so their runs are pooled by ``key``.
    """

    name = "cli-mix"
    cycle = 11
    cycles = 2
    trace_cycles = 2

    # Fixed deltas: the n = 6 family peaks at growth 24 at delta = 2/5.
    DELTAS = {4: "0.5", 5: "0.25", 6: "0.4"}

    def __init__(self, seed: int, workdir: Path, env: dict, in_process: bool):
        super().__init__(seed, workdir, env, in_process)
        self._validator = jsonschema.validators.validator_for(cli.REPORT_SCHEMA)(cli.REPORT_SCHEMA)
        # Checking is a pure function of (argv, exit code, stdout), and most
        # commands print byte-identical reports every cycle.
        self._verdicts: dict = {}
        self.dense = [workdir / f"dense_n200_{c}.txt" for c in range(self.cycles)]
        self.extremal = workdir / f"extremal_n6_delta{self.DELTAS[6]}.txt"
        self.commands = []
        for dense in self.dense:
            self.commands += [
                ["examples", "--n", str(n), "--delta", self.DELTAS[n], "--out", str(workdir)]
                for n in (4, 5, 6)
            ]
            for path in (self.extremal, dense):
                self.commands += [["factor", str(path)], ["certify", str(path)]]
            self.commands += [["lp", "--n", str(n)] for n in (6, 12, 20, 30)]

    def setup(self):
        for c, path in enumerate(self.dense):
            a = _symmetric(_rng(self.seed, 200, c), 200)
            lines = ["symmetric 200"] + [" ".join(f"{v:.17g}" for v in row) for row in a]
            path.write_text("\n".join(lines) + "\n")
        # The warm-up op emits the n = 6 extremal file that factor and certify read.
        self.run(self.prepare(2))

    def prepare(self, k: int):
        return self.commands[k % len(self.commands)]

    def key(self, k: int):
        return tuple(self.prepare(k))

    def run(self, argv):
        if self.in_process:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = cli.main(argv)
            return rc, out.getvalue(), err.getvalue()
        proc = subprocess.run(
            [sys.executable, "-m", "ltlt.cli", *argv],
            capture_output=True, text=True, env=self.env, timeout=120,
        )
        return proc.returncode, proc.stdout, proc.stderr

    def _verdict(self, argv, out):
        key = (tuple(argv), out[0], hashlib.sha256(out[1].encode()).hexdigest())
        if key not in self._verdicts:
            self._verdicts[key] = self._judge(argv, *out)
        return self._verdicts[key]

    def _judge(self, argv, rc, stdout, stderr):
        if rc != 0:
            return [f"exit code {rc}: {stderr.strip()[-200:]}"], None
        try:
            report = json.loads(stdout)
        except json.JSONDecodeError as e:
            return [f"report is not JSON: {e}"], None
        errors = [e.message for e in self._validator.iter_errors(report)]
        if errors:
            return [f"report fails the schema: {errors[0][:200]}"], None
        outputs, problems, ratio = report["outputs"], [], None
        if argv[0] == "lp":
            n, lp = int(argv[2]), outputs["lp"]
            viol = lpcert.build_program(n).max_violation(lp["point"])
            if not viol <= lpcert.FEASIBILITY_TOL:
                problems.append(f"LP point violates a row by {viol:.3e}")
            if n <= 5 and abs(lp["objective"]) > lpcert.FEASIBILITY_TOL:
                problems.append(f"LP objective {lp['objective']} is not 0 at n={n}")
            if n >= 6 and not lp["objective"] > 0.0:
                problems.append(f"LP objective {lp['objective']} is not > 0 at n={n}")
            if not lp["tnn_bound"] <= 2.0 ** (n - 1):
                problems.append(f"tnn_bound {lp['tnn_bound']} exceeds 2^(n-1)")
        elif argv[0] == "examples":
            ratio = outputs["example"]["recomputed_growth"] / 2.0 ** (int(argv[2]) - 1)
        else:
            ratio = outputs["growth"] / 2.0 ** (report["inputs"]["n"] - 1)
        return problems, ratio

    def check(self, argv, out) -> list:
        return self._verdict(argv, out)[0]

    def growth_ratio(self, argv, out):
        return self._verdict(argv, out)[1]


class MatrixMix(Workload):
    """One matrix or one command per op: each rotation is the three
    ``DenseLarge`` ops followed by the eleven ``CliMix`` commands."""

    name = "matrix-mix"
    cycle = DenseLarge.cycle + CliMix.cycle
    cycles = CliMix.cycles
    trace_cycles = CliMix.trace_cycles

    def __init__(self, seed: int, workdir: Path, env: dict, in_process: bool):
        super().__init__(seed, workdir, env, in_process)
        self.parts = (DenseLarge(seed, workdir, env, in_process), CliMix(seed, workdir, env, in_process))

    def _part(self, k: int):
        c, i = divmod(k, self.cycle)
        dense, cli_ = self.parts
        if i < dense.cycle:
            return dense, c * dense.cycle + i
        return cli_, c * cli_.cycle + i - dense.cycle

    def setup(self):
        for part in self.parts:
            part.setup()

    def prepare(self, k: int):
        part, j = self._part(k)
        return part, part.prepare(j)

    def key(self, k: int):
        part, j = self._part(k)
        return part.name, part.key(j)

    def run(self, inp):
        part, x = inp
        return part.run(x)

    def check(self, inp, out) -> list:
        part, x = inp
        return part.check(x, out)

    def growth_ratio(self, inp, out):
        part, x = inp
        return part.growth_ratio(x, out)


WORKLOADS = {w.name: w for w in (SearchSmall, MatrixMix)}
