"""dramforge benchmark: end-to-end metrics, or per-layer metrics from a traced run.

Run from the repository root:

    python3 bench/run.py --workload serial-mvn4 --seed 11 --seconds 45 --trace 0

With ``--trace 0`` the workload's operations are timed with the program
untouched and every end-to-end metric is reported, its times scaled to a
reference host speed (see ``hostspeed.py``); with ``--trace 1`` the
same rounds run alternately untraced and traced (see ``tracing.py``) and
every per-layer metric is reported. Both modes check the outputs. The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it records the
run's provenance. Work files go under ``.bench_out/`` and are removed at the
end, except the trace file ``.bench_out/trace-<workload>-seed<seed>.json``.
"""

import os
import sys

# Pinned before numpy loads: BLAS/OpenMP pools would otherwise size
# themselves to the host and add threads the timings do not account for.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("DRAMFORGE_OUT", None)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import tempfile  # noqa: E402
from time import perf_counter  # noqa: E402

import numpy as np  # noqa: E402

import ess as bench_ess  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DEFAULT_SEED = 11  # the seed of configs/mvn4.cfg

# name -> unit. Every workload reports all of them (see workloads.py for
# how the resume and postproc figures arise on the sampling workloads).
END_TO_END = {
    "setup_s": "s",
    "iter_per_s": "1/s",
    "ess_per_s": "1/s",
    "resume_s": "s",
    "postproc_s": "s",
    "chain_bytes_per_iter": "B/iter",
    "peak_rss_mb": "MB",
}


def log(message: str) -> None:
    print(message, file=sys.stderr, flush=True)


class Clock:
    """Times one operation by calling the program directly.

    With a ``HostSpeed`` the time returned is rescaled to the reference host
    speed (see ``hostspeed.py``); without one it is the raw wall time.
    """

    def __init__(self, host=None):
        self.host = host

    def __call__(self, name, fn, *args, **kwargs):
        t0 = perf_counter()
        result = fn(*args, **kwargs)
        wall = perf_counter() - t0
        return result, self.host.scale(wall) if self.host else wall

    def checkpoint_callback(self):
        return None


class TraceClock(Clock):
    """Times one operation as a root span with the program's functions wrapped."""

    def __init__(self, tracer):
        from tracing import Patches

        super().__init__()
        self.tracer = tracer
        self.patches = Patches(tracer)

    def __call__(self, name, fn, *args, **kwargs):
        self.patches.install()
        try:
            t0 = perf_counter()
            result = self.tracer.call(name, fn, args, kwargs, True)
            return result, perf_counter() - t0
        finally:
            self.patches.restore()

    def checkpoint_callback(self):
        return self.tracer.checkpoint_callback()


def set_up(wl, seed: int, host=None) -> list[float]:
    """Builds the workload's cases; returns the set-up time of each.

    With a ``HostSpeed`` the times are rescaled to the reference host speed.
    """
    from workloads import sub_seed

    times = []
    for k in range(wl.case_count):
        t0 = perf_counter()
        wl.cases.append(wl.prepare(k, sub_seed(seed, k)))
        wall = perf_counter() - t0
        times.append(host.scale(wall) if host else wall)
    return times


def run_round(wl, clock, seed, checks, tally, moments, first: int = 0, stop=None):
    """Runs the workload's round of operations, numbered from ``first``.

    Run ``j`` uses case ``j mod case_count`` and seed ``sub_seed(seed, j)``;
    resume ``r`` uses case ``r mod case_count``. ``stop`` ends the round early,
    once it returns true after an operation. Returns the number of runs
    and of resumes made.
    """
    from workloads import sub_seed

    runs = resumes = 0
    for op in wl.round:
        if op == "sample":
            j = first + runs
            wl.sample(clock, j, sub_seed(seed, j), checks, tally, moments)
            runs += 1
        else:
            wl.resume_postproc(clock, first + resumes, checks, tally)
            resumes += 1
        if stop is not None and stop():
            break
    return runs, resumes


def count_moment_failures(wl, moments, checks) -> None:
    attempted, failed, bad = moments.failures()
    for line in bad:
        log(f"check failed: {wl.name}: {line}")
    checks.attempted += attempted
    checks.failed += failed


def end_to_end(wl, seed: int, seconds: float, checks, import_s: float):
    from hostspeed import REFERENCE_S, HostSpeed
    from workloads import Tally, case_mean

    host = HostSpeed()
    # The first kernel pass directly follows the import just timed.
    import_s *= REFERENCE_S / host.last
    setup_times = set_up(wl, seed, host)
    tally = Tally()
    moments = bench_ess.MomentCheck(*wl.truth())
    clock = Clock(host)
    start = perf_counter()
    runs = resumes = 0

    def done():
        # Time is up once every kind of operation has run at least once.
        return perf_counter() - start >= seconds and tally.sample_walls and tally.resume_walls

    while not done():
        n_runs, n_resumes = run_round(wl, clock, seed, checks, tally, moments,
                                      first=runs, stop=done)
        runs += n_runs
        resumes += n_resumes
    count_moment_failures(wl, moments, checks)

    iter_per_s = statistics.median(wl.sample_size / w for w in tally.sample_walls)
    # ESS per iteration is pooled over every run's chain, then turned into a
    # rate with the median throughput: one chain's ESS is too noisy an
    # estimate to take a median of.
    ess_per_iter = sum(e for e, _ in tally.sample_ess) / sum(n for _, n in tally.sample_ess)
    metrics = {
        "setup_s": import_s + statistics.median(setup_times),
        "iter_per_s": iter_per_s,
        "ess_per_s": ess_per_iter * iter_per_s,
        "resume_s": case_mean(tally.resume_walls),
        "postproc_s": case_mean(tally.postproc_walls),
        "chain_bytes_per_iter": statistics.median(tally.sample_bytes_per_iter),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    counts = {"runs": len(tally.sample_walls), "resumes": len(tally.resume_walls),
              "setup_s_each": setup_times, **host.summary()}
    return {k: (v, END_TO_END[k]) for k, v in metrics.items()}, counts


def traced(wl, seed: int, seconds: float, checks, trace_path: str):
    from tracing import (PER_LAYER, UNATTRIBUTED_SLACK, Tracer, layer_metrics,
                         unattributed_share)
    from workloads import Tally

    set_up(wl, seed)
    moments = bench_ess.MomentCheck(*wl.truth())
    untraced_walls, traced_walls, twin_walls, fj_walls = [], [], [], []
    rounds = []  # (tracer, benchmark ESS made, ESS of each output)
    start = perf_counter()
    while len(rounds) < 2 or perf_counter() - start < seconds:
        # Untraced and traced rounds alternate and repeat the same runs, so
        # the traced counts must come out identical every time.
        tally = Tally()
        run_round(wl, Clock(), seed, checks, tally,
                  moments if not rounds else bench_ess.MomentCheck(*wl.truth()))
        untraced_walls.append(tally.timed_s())
        if hasattr(wl, "twin") and tally.sample_walls:
            fj_walls.append(tally.sample_walls[0])
            twin_walls.append(wl.twin(Clock(), seed))

        tracer = Tracer()
        tally = Tally()
        run_round(wl, TraceClock(tracer), seed, checks, tally, bench_ess.MomentCheck(*wl.truth()))
        traced_walls.append(tally.timed_s())
        made = sum(e for e, _ in tally.sample_ess) + sum(
            e * wl.resumed_iterations / n for e, n in tally.resume_ess)
        out_ess = [bench_ess.ess(out.chain.states, out.chain.weight) for out in tracer.outputs]
        rounds.append((tracer, made, out_ess))
        gap = unattributed_share(tracer)
        checks.check(gap <= UNATTRIBUTED_SLACK,
                     f"{wl.name}: the program's layers cover the root spans but for "
                     f"{gap:.2e} of their time (slack {UNATTRIBUTED_SLACK:g})")
    count_moment_failures(wl, moments, checks)
    first = rounds[0][0].call_counts()
    for tracer, _, _ in rounds[1:]:
        checks.check(tracer.call_counts() == first,
                     f"{wl.name}: two traced runs of one seed gave different counts")

    untraced = statistics.median(untraced_walls)
    overhead = statistics.median(traced_walls) - untraced
    extra = {"speedup_measured": 0.0, "speedup_predicted": 0.0, "fitted_p": 0.0,
             "fit_distance": 0.0, "overhead_s": overhead, "overhead_share": overhead / untraced}
    reports = [out.report for out in rounds[0][0].outputs if out.report.parallel]
    if twin_walls:
        extra["speedup_measured"] = statistics.median(twin_walls) / statistics.median(fj_walls)
    if reports:
        fit = reports[0].parallel
        extra["speedup_predicted"] = fit.speedup[reports[0].spec.num_workers - 1]
        extra["fitted_p"] = fit.fitted_p
        extra["fit_distance"] = fit.fit_distance
    per_round = [layer_metrics(t, made, out_ess, extra) for t, made, out_ess in rounds]
    # Counts repeat exactly (checked above); times are medians over rounds.
    metrics = {
        name: (per_round[0][name] if isinstance(per_round[0][name], int)
               else statistics.median(m[name] for m in per_round), unit)
        for name, unit, _ in PER_LAYER
    }
    write_trace(trace_path, wl, seed, rounds[0][0], untraced_walls, traced_walls)
    return metrics, {"traced_rounds": len(rounds)}


def write_trace(path, wl, seed, tracer, untraced_walls, traced_walls) -> None:
    """Aggregates and coarse spans of the first traced round, as JSON."""
    t0 = min((s[2] for s in tracer.spans), default=0.0)
    doc = {
        "workload": wl.name,
        "seed": seed,
        "untraced_round_s": untraced_walls,
        "traced_round_s": traced_walls,
        "aggregates": [
            {"name": n, "parent": p, "calls": r[0], "total_s": r[1], "self_s": r[2]}
            for (n, p), r in sorted(tracer.agg.items(), key=lambda kv: -kv[1][2])
        ],
        "spans": [
            {"name": n, "parent": p, "start_s": a - t0, "end_s": b - t0}
            for n, p, a, b in tracer.spans
        ],
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)


def provenance(wl, args, extra: dict) -> dict:
    src = os.path.join(ROOT, "src", "dramforge")
    lines = 0
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), encoding="utf-8") as fh:
                lines += sum(1 for _ in fh)
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30, check=False)
        commit = done.stdout.strip() or None
    return {
        "workload": wl.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "src_lines": lines,
        "git_commit": commit,
        "blas_threads": 1,
        "sample_chain_size": wl.sample_size,
        "resume_chain_size": wl.rp_size,
        "resumed_iterations": wl.resumed_iterations,
        "cases": len(wl.cases),
        **extra,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("serial-mvn4", "forkjoin-mixture"))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not 0 <= args.seed < 2**63:
        parser.error("--seed must lie in [0, 2**63)")
    os.chdir(ROOT)
    sys.path.insert(0, os.path.join(ROOT, "src"))

    t0 = perf_counter()
    import dramforge
    import_s = perf_counter() - t0
    if not os.path.abspath(dramforge.__file__).startswith(os.path.join(ROOT, "src", "")):
        raise SystemExit(f"dramforge imported from {dramforge.__file__}, not from {ROOT}/src")
    from workloads import WORKLOADS, Checks

    out_dir = os.path.join(ROOT, ".bench_out")
    os.makedirs(out_dir, exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=out_dir)
    checks = Checks(log)
    try:
        wl = WORKLOADS[args.workload](os.path.relpath(work, ROOT))
        if args.trace:
            trace_path = os.path.join(out_dir, f"trace-{args.workload}-seed{args.seed}.json")
            metrics, extra = traced(wl, args.seed, args.seconds, checks, trace_path)
            extra["trace_file"] = os.path.relpath(trace_path, ROOT)
        else:
            metrics, extra = end_to_end(wl, args.seed, args.seconds, checks, import_s)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps({"provenance": provenance(wl, args, extra)}))
    print(json.dumps({
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
