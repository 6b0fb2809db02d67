"""Seed spread of the benchmark ESS and of target calls per ESS, for reference.

Runs one traced run of ``serial-mvn4`` and of ``forkjoin-mixture`` under each
of a few seeds (seed 0, whose rank streams overlap, included) and prints,
per workload, the benchmark ESS and ``core.target.calls_per_ess`` of each
seed with their spread. A change that alters output bytes on purpose moves
these figures by seed noise alone; compare its shift with this spread.

    python3 bench/seed_spread.py > bench/seed_spread.json
"""

import json
import os
import shutil
import statistics
import sys
import tempfile

import run  # pins the BLAS threads before numpy loads

import ess as bench_ess

SEEDS = (0, 1, 2, 3, 11)


def spread(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"min": min(values), "median": median, "max": max(values),
            "iqr_over_median": (q3 - q1) / median}


def main() -> int:
    os.chdir(run.ROOT)
    sys.path.insert(0, os.path.join(run.ROOT, "src"))
    from tracing import Tracer
    from workloads import WORKLOADS, Checks, Tally

    out_dir = os.path.join(run.ROOT, ".bench_out")
    os.makedirs(out_dir, exist_ok=True)
    result = {}
    for name in ("serial-mvn4", "forkjoin-mixture"):
        rows = []
        for seed in SEEDS:
            work = tempfile.mkdtemp(prefix=f"spread-{name}-", dir=out_dir)
            try:
                wl = WORKLOADS[name](os.path.relpath(work, run.ROOT))
                wl.cases.append(wl.prepare(0, seed))
                tracer, tally, checks = Tracer(), Tally(), Checks(run.log)
                wl.sample(run.TraceClock(tracer), 0, seed, checks, tally,
                          bench_ess.MomentCheck(*wl.truth()))
            finally:
                shutil.rmtree(work, ignore_errors=True)
            if checks.failed:
                raise SystemExit(f"{name} seed {seed}: {checks.failed} checks failed")
            ess, iterations = tally.sample_ess[0]
            calls = tracer.calls("core.target")
            rows.append({"seed": seed, "iterations": iterations, "ess": ess,
                         "target_calls": calls, "calls_per_iter": calls / iterations,
                         "calls_per_ess": calls / ess})
            print(json.dumps({"workload": name, **rows[-1]}), file=sys.stderr)
        result[name] = {
            "runs": rows,
            "ess": spread([r["ess"] for r in rows]),
            "calls_per_ess": spread([r["calls_per_ess"] for r in rows]),
        }
    print(json.dumps(result, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
