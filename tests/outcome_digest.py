"""Print one sha256 over the search outcomes, so that "outcomes unchanged" is a command.

    python tests/outcome_digest.py

The outcomes are the 48 ``search-small`` ops of benchmark seeds 0-3, built
by bench/workloads.py's SearchSmall, then ``SearchConfig(n=4, restarts=64,
seed=0)``, the search ``ltlt search --n 4`` runs.  Each outcome adds, in
order, ``best_matrix.entries.tobytes()``, ``float64(best_growth).tobytes()``,
``str(evaluations).encode()`` and ``array(per_restart_best).tobytes()`` to
the digest.  It takes about a second and a half.
"""
import hashlib
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

import numpy as np  # noqa: E402
from ltlt.search import SearchConfig, maximize_growth  # noqa: E402
from workloads import SearchSmall  # noqa: E402


def outcomes():
    for seed in range(4):
        wl = SearchSmall(seed, workdir=None, env=None, in_process=True)
        for k in range(wl.ops):
            yield wl.run(wl.prepare(k))
    yield maximize_growth(SearchConfig(n=4, restarts=64, seed=0))


def main():
    digest, count = hashlib.sha256(), 0
    for out in outcomes():
        digest.update(out.best_matrix.entries.tobytes())
        digest.update(np.float64(out.best_growth).tobytes())
        digest.update(str(out.evaluations).encode())
        digest.update(np.array(out.per_restart_best).tobytes())
        count += 1
    print(f"{digest.hexdigest()}  {count} outcomes")


if __name__ == "__main__":
    main()
