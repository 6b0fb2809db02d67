"""Traced runs: spans and counts at the public functions of each dramforge module.

Each public function is wrapped where it is looked up (``sampler.py`` does
``from .proposal import propose``, so ``dramforge.sampler.propose`` is
patched as well as ``dramforge.proposal.propose``); methods are patched on
their class. Every wrapped call is aggregated per (name, parent) into a call
count, total time and self time (total minus the time of wrapped calls made
inside it). Coarse calls (runs, adaptation, refinement, file reads and
rewrites, CLI commands) are also kept one by one as spans. Wrappers are
installed only while a traced operation runs and removed afterwards, so the
untraced runs execute the program's own functions.

A span's name starts with its layer: ``core``, ``proposal``, ``sampler``,
``chainio``, ``refinement``, ``parallel``, ``cli``; ``bench`` names the
benchmark's own root spans, one per timed operation.
"""

from __future__ import annotations

import inspect
import os
from collections import defaultdict
from time import perf_counter

import numpy as np

import dramforge
from dramforge import chainio, cli, core, parallel, proposal, refinement, sampler

MODULES = (dramforge, core, proposal, sampler, chainio, refinement, parallel, cli)

# The self times of the program's layers must add up to the root spans
# within this share: a larger remainder is time the benchmark's own root
# spans spent outside any wrapped function, that is, a missing wrapper.
UNATTRIBUTED_SLACK = 0.01


class Tracer:
    """Span stack, per-(name, parent) aggregates, coarse spans and counters."""

    def __init__(self):
        self.stack: list[list] = []  # open frames: [name, time in child spans]
        self.agg: dict[tuple[str, str], list] = {}  # -> [calls, total_s, self_s]
        self.spans: list[tuple[str, str, float, float]] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.outputs: list = []  # SimulationOutputs returned by run_sampler
        self.checkpoints: list[list[float]] = []  # on_checkpoint times per run
        self.open_files: dict[int, tuple[str, str, int]] = {}

    def call(self, name: str, fn, args, kwargs, coarse: bool):
        stack = self.stack
        frame = [name, 0.0]
        stack.append(frame)
        t0 = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = perf_counter()
            stack.pop()
            dt = t1 - t0
            parent = stack[-1][0] if stack else ""
            if stack:
                stack[-1][1] += dt
            rec = self.agg.get((name, parent))
            if rec is None:
                rec = self.agg[(name, parent)] = [0, 0.0, 0.0]
            rec[0] += 1
            rec[1] += dt
            rec[2] += dt - frame[1]
            if coarse:
                self.spans.append((name, parent, t0, t1))

    def calls(self, *names: str) -> int:
        return sum(r[0] for (n, _), r in self.agg.items() if n in names)

    def total_s(self, *names: str) -> float:
        return sum(r[1] for (n, _), r in self.agg.items() if n in names)

    def self_s(self, *names: str) -> float:
        return sum(r[2] for (n, _), r in self.agg.items() if n in names)

    def root_s(self) -> float:
        return sum(r[1] for (_, p), r in self.agg.items() if p == "")

    def layer_self_s(self) -> dict[str, float]:
        out: dict[str, float] = defaultdict(float)
        for (name, _), rec in self.agg.items():
            out[name.split(".")[0]] += rec[2]
        return dict(out)

    def call_counts(self) -> dict:
        counts = {f"{n}<-{p}": r[0] for (n, p), r in self.agg.items()}
        counts.update(self.counts)
        return counts

    def checkpoint_callback(self):
        times: list[float] = []
        self.checkpoints.append(times)
        return lambda iteration: times.append(perf_counter())


# ---------------------------------------------------------------------------
# Hooks: cheap bookkeeping around selected calls, outside their own span.


def _stage_attempt(t, args, kwargs):
    t.counts[f"stage{args[2]}.attempts"] += 1


def _eps_before(t, args, kwargs):
    return args[0].epsilon


def _eps_after(t, eps_in, args, kwargs, result):
    if result.epsilon > eps_in:
        t.counts["eps_inflations"] += 1


def _step_after(t, ctx, args, kwargs, result):
    state, row = result
    t.counts["iterations"] += 1
    if row is not None:
        t.counts[f"stage{state.live_dr_stage}.accepts"] += 1


def _fj_before(t, args, kwargs):
    return args[0].iteration


def _fj_after(t, it_before, args, kwargs, result):
    state, winner, _ = result
    n = len(state.rngs)
    max_steps = args[3] if len(args) > 3 else kwargs.get("max_steps")
    used = winner if winner is not None else (n if max_steps is None else min(n, max_steps))
    t.counts["iterations"] += state.iteration - it_before
    t.counts["fj.cycles"] += 1
    t.counts["fj.wasted_attempts"] += n - used
    if winner is not None:
        t.counts[f"stage{state.live_dr_stage}.accepts"] += 1


def _worker_attempt(t, args, kwargs):
    t.counts["fj.attempts"] += 1


def _outputs_after(t, ctx, args, kwargs, result):
    t.outputs.append(result)


def _refine_after(t, ctx, args, kwargs, result):
    t.counts["refine_passes"] += len(result.iac_history)


def _read_bytes(t, args, kwargs):
    t.counts["read_bytes"] += os.path.getsize(args[0])


def _file_opened(counter: str, init):
    """Hooks recording a writer's path and the file size it starts from."""
    signature = inspect.signature(init)

    def before(t, args, kwargs):
        bound = signature.bind(*args, **kwargs).arguments
        path = bound["path"]
        # A fresh file counts from zero (its header is written by the
        # constructor); an appended one from its size before opening.
        append = bound.get("append") and os.path.exists(path)
        return path, os.path.getsize(path) if append else 0

    def after(t, ctx, args, kwargs, result):
        t.open_files[id(args[0])] = (counter, *ctx)

    return before, after


def _closed(t, ctx, args, kwargs, result):
    entry = t.open_files.pop(id(args[0]), None)
    if entry is not None:
        counter, path, before = entry
        t.counts[counter] += os.path.getsize(path) - before


def _cli_name(args, kwargs) -> str:
    argv = args[0] if args else kwargs["argv"]
    if argv[0] == "postproc":
        return "cli.postproc." + argv[argv.index("--what") + 1]
    return "cli." + argv[0]


# (owner, attribute, span name, coarse, before hook, after hook). ``owner``
# is a module (the function is patched in every dramforge module that
# holds it) or a class (the method is patched on the class).
WRAPPED = (
    (core.SplitMix64, "uniform", "core.rng.uniform", False, None, None),
    (core.SplitMix64, "gauss", "core.rng.gauss", False, None, None),
    (core.SplitMix64, "next_uint64", "core.rng.next_uint64", False, None, None),
    (core.TargetDensity, "__call__", "core.target", False, None, None),
    (core, "build_target", "core.build_target", True, None, None),
    (proposal, "propose", "proposal.propose", False, _stage_attempt, None),
    (proposal, "log_kernel", "proposal.log_kernel", False, None, None),
    (proposal, "update_mean_cov", "proposal.adapt", False, None, None),
    (proposal, "factorize", "proposal.factorize", False, _eps_before, _eps_after),
    (proposal, "adaptation_measure", "proposal.measure", False, None, None),
    (proposal, "initial_proposal", "proposal.initial", False, None, None),
    (sampler, "step", "sampler.step", False, None, _step_after),
    (sampler, "fork_join_cycle", "sampler.fork_join_cycle", False, _fj_before, _fj_after),
    (sampler, "worker_attempt", "sampler.worker_attempt", False, _worker_attempt, None),
    (sampler, "dr_log_alpha2", "sampler.dr_log_alpha2", False, None, None),
    (sampler, "adapt_if_due", "sampler.adapt_if_due", True, None, None),
    (sampler, "init_state", "sampler.init_state", True, None, None),
    (sampler, "detect_burnin", "sampler.detect_burnin", True, None, None),
    (sampler, "run_sampler", "sampler.run_sampler", True, None, _outputs_after),
    (sampler, "resume", "sampler.resume", True, None, None),
    (chainio.ChainWriter, "__init__", "chainio.write.open", False,
     *_file_opened("chain_bytes", chainio.ChainWriter.__init__)),
    (chainio.ChainWriter, "append", "chainio.write", False, None, None),
    (chainio.ChainWriter, "flush", "chainio.flush", False, None, None),
    (chainio.ChainWriter, "close", "chainio.write.close", False, None, _closed),
    (chainio.RestartWriter, "__init__", "chainio.restart.open", False,
     *_file_opened("restart_bytes", chainio.RestartWriter.__init__)),
    (chainio.RestartWriter, "append", "chainio.restart.append", False, None, None),
    (chainio.RestartWriter, "close", "chainio.restart.close", False, None, _closed),
    (chainio.ProgressWriter, "line", "chainio.progress", False, None, None),
    (chainio, "read_chain", "chainio.read_chain", True, _read_bytes, None),
    (chainio, "read_restart", "chainio.read_restart", True, None, None),
    (chainio, "write_chain", "chainio.rewrite.chain", True, None, None),
    (chainio, "rewrite_restart", "chainio.rewrite.restart", True, None, None),
    (chainio, "chain_byte_size", "chainio.byte_size", True, None, None),
    (chainio, "inspect_outputs", "chainio.inspect_outputs", True, None, None),
    (chainio, "write_report", "chainio.report.write", True, None, None),
    (chainio, "read_report", "chainio.report.read", True, None, None),
    (chainio, "write_sample", "chainio.sample.write", True, None, None),
    (chainio, "read_sample", "chainio.sample.read", True, None, None),
    (refinement, "refine", "refinement.refine", True, None, _refine_after),
    (refinement, "weighted_acf", "refinement.weighted_acf", True, None, None),
    (parallel, "contribution_stats", "parallel.contribution_stats", True, None, None),
    (cli, "main", _cli_name, True, None, None),
)


def _wrap(tracer: Tracer, fn, name, coarse, before, after):
    call = tracer.call
    if isinstance(name, str) and before is None and after is None:
        def wrapper(*args, **kwargs):
            return call(name, fn, args, kwargs, coarse)
    else:
        def wrapper(*args, **kwargs):
            ctx = before(tracer, args, kwargs) if before else None
            span = name if isinstance(name, str) else name(args, kwargs)
            result = call(span, fn, args, kwargs, coarse)
            if after:
                after(tracer, ctx, args, kwargs, result)
            return result
    wrapper.__name__ = getattr(fn, "__name__", "wrapped")
    wrapper.__wrapped__ = fn
    return wrapper


class Patches:
    """Installs the wrappers of ``WRAPPED`` for one tracer, and removes them."""

    def __init__(self, tracer: Tracer):
        self.plan = []  # (holder, attribute, original, wrapper)
        for owner, attr, name, coarse, before, after in WRAPPED:
            original = getattr(owner, attr)
            wrapper = _wrap(tracer, original, name, coarse, before, after)
            if isinstance(owner, type):
                self.plan.append((owner, attr, original, wrapper))
                continue
            for module in MODULES:
                for key, value in vars(module).items():
                    if value is original:
                        self.plan.append((module, key, original, wrapper))

    def install(self) -> None:
        for holder, attr, _, wrapper in self.plan:
            setattr(holder, attr, wrapper)

    def restore(self) -> None:
        for holder, attr, original, _ in self.plan:
            setattr(holder, attr, original)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _percentile_ms(gaps: list[float], q: float) -> float:
    return float(np.percentile(gaps, q)) * 1e3 if gaps else 0.0


def layer_metrics(t: Tracer, ess_made: float, ess_of_outputs: list[float],
                  extra: dict) -> dict[str, float]:
    """Per-layer metric values of one traced round.

    ``ess_made`` is the benchmark ESS the round's sampling produced;
    ``ess_of_outputs`` holds the benchmark ESS of each chain in
    ``t.outputs``; ``extra`` supplies the parallel and trace-overhead
    figures measured outside the tracer.
    """
    c = t.counts
    root = t.root_s()
    iterations = c["iterations"]
    target_calls = t.calls("core.target")
    rng_self = t.self_s("core.rng.uniform", "core.rng.gauss", "core.rng.next_uint64")
    gaps = [b - a for times in t.checkpoints for a, b in zip(times, times[1:])]
    fj_attempts = c["fj.attempts"]
    refined = sum(len(out.refined) for out in t.outputs)
    read_s = t.total_s("chainio.read_chain")
    m = {
        "core.rng.draws": t.calls("core.rng.uniform", "core.rng.next_uint64"),
        "core.rng.self_s": rng_self,
        "core.rng.share": _ratio(rng_self, root),
        "core.target.calls": target_calls,
        "core.target.self_s": t.self_s("core.target"),
        "core.target.calls_per_iter": _ratio(target_calls, iterations),
        "core.target.calls_per_ess": _ratio(target_calls, ess_made),
        "proposal.propose.calls": t.calls("proposal.propose"),
        "proposal.propose.self_s": t.self_s("proposal.propose"),
        "proposal.log_kernel.calls": t.calls("proposal.log_kernel"),
        "proposal.log_kernel.self_s": t.self_s("proposal.log_kernel"),
        "proposal.adapt.calls": t.calls("proposal.adapt"),
        "proposal.adapt.self_s": t.self_s("proposal.adapt"),
        "proposal.factorize.calls": t.calls("proposal.factorize"),
        "proposal.measure.self_s": t.self_s("proposal.measure"),
        "proposal.eps_inflations": c["eps_inflations"],
        "sampler.iterations": iterations,
        "sampler.self_s": t.self_s(
            "sampler.step", "sampler.fork_join_cycle", "sampler.worker_attempt",
            "sampler.dr_log_alpha2",
        ),
    }
    for k in range(3):
        attempts, accepts = c[f"stage{k}.attempts"], c[f"stage{k}.accepts"]
        m[f"sampler.stage{k}.attempts"] = attempts
        m[f"sampler.stage{k}.accepts"] = accepts
        m[f"sampler.stage{k}.accept_ratio"] = _ratio(accepts, attempts)
    m.update({
        "sampler.ckpt_gap_ms.p50": _percentile_ms(gaps, 50),
        "sampler.ckpt_gap_ms.p90": _percentile_ms(gaps, 90),
        "sampler.fj.cycles": c["fj.cycles"],
        "sampler.fj.attempts": fj_attempts,
        "sampler.fj.wasted_attempts": c["fj.wasted_attempts"],
        "sampler.fj.useful_ratio": _ratio(fj_attempts - c["fj.wasted_attempts"], fj_attempts),
        "parallel.speedup_measured": extra["speedup_measured"],
        "parallel.speedup_predicted": extra["speedup_predicted"],
        "parallel.fitted_p": extra["fitted_p"],
        "parallel.fit_distance": extra["fit_distance"],
        "parallel.nproc": os.cpu_count() or 1,
        "chainio.write.rows": t.calls("chainio.write"),
        "chainio.write.self_s": t.self_s("chainio.write"),
        "chainio.write.bytes": c["chain_bytes"],
        "chainio.flush.self_s": t.self_s("chainio.flush"),
        "chainio.restart.append.self_s": t.self_s("chainio.restart.append"),
        "chainio.restart.bytes": c["restart_bytes"],
        "chainio.read_chain.calls": t.calls("chainio.read_chain"),
        "chainio.read_chain.self_s": t.self_s("chainio.read_chain"),
        "chainio.read_chain.mb_per_s": _ratio(c["read_bytes"] / 1e6, read_s),
        "chainio.read_restart.self_s": t.self_s("chainio.read_restart"),
        "chainio.rewrite.self_s": t.self_s("chainio.rewrite.chain", "chainio.rewrite.restart"),
        "chainio.byte_size.self_s": t.self_s("chainio.byte_size"),
        "refinement.refine.self_s": t.self_s("refinement.refine"),
        "refinement.refine.passes": c["refine_passes"],
        "refinement.refined_per_ess": _ratio(refined, sum(ess_of_outputs)),
        "refinement.weighted_acf.calls": t.calls("refinement.weighted_acf"),
        "refinement.weighted_acf.self_s": t.self_s("refinement.weighted_acf"),
    })
    for what in ("stats", "acf", "covmat", "contrib"):
        m[f"cli.postproc.{what}_s"] = t.total_s(f"cli.postproc.{what}")
    m["trace.overhead_s"] = extra["overhead_s"]
    m["trace.overhead_share"] = extra["overhead_share"]
    m["trace.unattributed_share"] = unattributed_share(t)
    return m


def unattributed_share(t: Tracer) -> float:
    """Share of the root spans' time that no program layer's self time covers.

    It is the self time of the benchmark's own ``bench`` root spans: the time
    an operation spent outside every wrapped dramforge function.
    """
    return _ratio(t.layer_self_s().get("bench", 0.0), t.root_s())


# (name, unit, better) of every per-layer metric, in report order.
PER_LAYER = (
    ("core.rng.draws", "count", "lower"),
    ("core.rng.self_s", "s", "lower"),
    ("core.rng.share", "ratio", "lower"),
    ("core.target.calls", "count", "lower"),
    ("core.target.self_s", "s", "lower"),
    ("core.target.calls_per_iter", "calls/iter", "lower"),
    ("core.target.calls_per_ess", "calls/ess", "lower"),
    ("proposal.propose.calls", "count", "lower"),
    ("proposal.propose.self_s", "s", "lower"),
    ("proposal.log_kernel.calls", "count", "lower"),
    ("proposal.log_kernel.self_s", "s", "lower"),
    ("proposal.adapt.calls", "count", "lower"),
    ("proposal.adapt.self_s", "s", "lower"),
    ("proposal.factorize.calls", "count", "lower"),
    ("proposal.measure.self_s", "s", "lower"),
    ("proposal.eps_inflations", "count", "lower"),
    ("sampler.iterations", "count", "higher"),
    ("sampler.self_s", "s", "lower"),
    *(
        (f"sampler.stage{k}.{what}", unit, better)
        for k in range(3)
        for what, unit, better in (
            ("attempts", "count", "lower"),
            ("accepts", "count", "higher"),
            ("accept_ratio", "ratio", "higher"),
        )
    ),
    ("sampler.ckpt_gap_ms.p50", "ms", "lower"),
    ("sampler.ckpt_gap_ms.p90", "ms", "lower"),
    ("sampler.fj.cycles", "count", "lower"),
    ("sampler.fj.attempts", "count", "lower"),
    ("sampler.fj.wasted_attempts", "count", "lower"),
    ("sampler.fj.useful_ratio", "ratio", "higher"),
    ("parallel.speedup_measured", "x", "higher"),
    ("parallel.speedup_predicted", "x", "higher"),
    ("parallel.fitted_p", "ratio", "higher"),
    ("parallel.fit_distance", "ratio", "lower"),
    ("parallel.nproc", "count", "higher"),
    ("chainio.write.rows", "count", "lower"),
    ("chainio.write.self_s", "s", "lower"),
    ("chainio.write.bytes", "B", "lower"),
    ("chainio.flush.self_s", "s", "lower"),
    ("chainio.restart.append.self_s", "s", "lower"),
    ("chainio.restart.bytes", "B", "lower"),
    ("chainio.read_chain.calls", "count", "lower"),
    ("chainio.read_chain.self_s", "s", "lower"),
    ("chainio.read_chain.mb_per_s", "MB/s", "higher"),
    ("chainio.read_restart.self_s", "s", "lower"),
    ("chainio.rewrite.self_s", "s", "lower"),
    ("chainio.byte_size.self_s", "s", "lower"),
    ("refinement.refine.self_s", "s", "lower"),
    ("refinement.refine.passes", "count", "lower"),
    ("refinement.refined_per_ess", "ratio", "higher"),
    ("refinement.weighted_acf.calls", "count", "lower"),
    ("refinement.weighted_acf.self_s", "s", "lower"),
    *((f"cli.postproc.{what}_s", "s", "lower") for what in ("stats", "acf", "covmat", "contrib")),
    ("trace.overhead_s", "s", "lower"),
    ("trace.overhead_share", "ratio", "lower"),
    ("trace.unattributed_share", "ratio", "lower"),
)
