"""The DRAM main loop.

One iteration proposes a candidate, optionally retries rejection through
up to ``MAX_DR_STAGES`` shrunken delayed-rejection stages, and either
starts a new chain row or increments the live row's repeat weight.
Adaptation, checkpointing, and file flushes all share the same cadence so
a crash can lose at most one adaptation period of work.
"""

from __future__ import annotations

import math
import os
import time
from contextlib import ExitStack
from dataclasses import dataclass, replace

import numpy as np

from . import refinement
from .chainio import (
    CHECKPOINT_FIELDS,
    ChainWriter,
    CompactChain,
    ParallelStats,
    ProgressWriter,
    ReportStats,
    RestartCheckpoint,
    RestartWriter,
    cut_chain,
    inspect_outputs,
    output_paths,
    read_chain,
    read_report,
    read_restart,
    read_sample,
    restart_ends_with,
    rewrite_restart,
    write_report,
    write_sample,
)
from .core import (
    MAX_DR_STAGES,
    NumericalError,
    ResumeRefused,
    RunAlreadyComplete,
    SimSpec,
    SplitMix64,
    TargetDensity,
    UsageError,
)
from .proposal import (
    KernelTape,
    ProposalState,
    adaptation_measure,
    factorize,
    initial_proposal,
    propose,  # noqa: F401  (looked up here by the benchmark tracer)
    update_mean_cov,
)

_LN2 = math.log(2.0)
_INF = math.inf
_NINF = -math.inf
PROGRESS_EVERY = 1000
# Bounds on the slots a new kernel tape holds (see ``_tape_slots``).
_TAPE_FIRST = 16
_TAPE_CAP = 1024


# A verdict is ``(accepted, point, logf, stage, stages_attempted)``; the
# rejection after k stages is ``_REJECTED[k - 1]``.
_REJECTED = tuple((False, None, _NINF, 0, k) for k in range(1, MAX_DR_STAGES + 2))


@dataclass
class SamplerState:
    """Live Markov-chain state plus run bookkeeping.

    ``iteration`` counts verbose slots: the start point occupies slot 1,
    so the sum of emitted row weights plus ``pending_weight`` always
    equals ``iteration``.
    """

    current: np.ndarray
    current_logf: float
    iteration: int
    accepted_count: int
    proposal: ProposalState
    rngs: list[SplitMix64]
    pending_weight: int
    live_dr_stage: int
    live_process_id: int
    rows: CompactChain
    absorbed_rows: int
    last_measure: float
    max_logf: float
    burnin_loc: int
    checkpoint_count: int


def metropolis_log_alpha(logf_current: float, logf_proposed: float) -> float:
    """Symmetric-proposal Metropolis log acceptance probability."""
    return min(0.0, logf_proposed - logf_current)


def _log1mexp(a: float) -> float:
    """log(1 - exp(a)), stable across the whole range; -inf unless a < 0.

    Called with ``logf_to - logf_from``, it is log(1 - alpha) of the
    Metropolis move: a difference that is not negative (NaN and -0.0
    included) has alpha 1, so -inf.
    """
    if not a < 0.0:
        return -math.inf
    if a < -_LN2:
        return math.log1p(-math.exp(a))
    return math.log(-math.expm1(a))


def dr_log_alpha(logfs: list, kern: list, i: int, s: int, e: int, memo: dict) -> float:
    """Log acceptance probability of the delayed-rejection path from point ``s`` to ``e``.

    Point 0 is the attempt's current point, point j its stage-(j-1)
    candidate and ``logfs[j]`` its log-density; ``kern`` holds its kernel
    terms at index ``i``, laid out as ``KernelTape.kern``. Mira's rule with
    stage kernels centred at the current point (Haario et al., DRAM): a
    one-step path is Metropolis, a longer one ``min(0, num - den)``, the
    ``_end_weight`` of ``e`` and of ``s``. ``memo`` keeps the attempt's
    longer alphas, keyed ``(s, e)``.
    """
    if logfs[e] == _NINF:
        return _NINF
    c = 1 if e > s else -1  # the step from s toward e
    m = (e - s) * c
    if m == 1:
        return metropolis_log_alpha(logfs[s], logfs[e])
    # A -inf num gives -inf; with num finite, a -inf den gives 0.
    num = _end_weight(logfs, kern, i, e, -c, m, memo)
    if num == _NINF:
        return num
    a = num - _end_weight(logfs, kern, i, s, c, m, memo)
    return a if a < 0.0 else 0.0


def _end_weight(logfs: list, kern: list, i: int, p: int, c: int, m: int, memo: dict) -> float:
    """Log weight of end ``p`` of an ``m``-step path whose next point is ``p + c``.

    Its logf, the stage-(d-1) kernel to the point at distance d < m, then
    log(1 - alpha) of its paths of 1 to m - 1 steps, in that order; a -inf
    neighbour term returns -inf at once.
    """
    f = logfs[p]
    w = _log1mexp(logfs[p + c] - f)
    if w == _NINF:
        return w
    f += kern[0][p if c > 0 else p - 1][i]
    if m == 2:
        return f + w
    far = range(2, m)
    for d in far:
        f += kern[d - 1][p if c > 0 else p - d][i]
    f += w
    for d in far:
        key = (p, p + c * d)
        a = memo.get(key)
        if a is None:
            a = memo[key] = dr_log_alpha(logfs, kern, i, p, key[1], memo)
        f += _log1mexp(a)
    return f


def dr_log_alpha2(
    logf_x: float,
    logf_y1: float,
    logf_y2: float,
    logq_y2_y1: float,
    logq_x_y1: float,
) -> float:
    """``dr_log_alpha`` of the path x -> y1 -> y2, from its stage-0 kernel terms."""
    return dr_log_alpha([logf_x, logf_y1, logf_y2], [[[logq_x_y1], [logq_y2_y1]]], 0, 0, 2, {})


def _bad_value(logf: float, where: str) -> NumericalError:
    return NumericalError(
        f"target returned {logf} {where}; a log-density must be finite or -inf"
    )


def _tape_slots(spec: SimSpec, state: SamplerState, rank: int, iteration: int) -> int:
    """Slots for a new tape of rank ``rank``'s stream, whose next attempt is ``iteration``.

    The slots the stream is expected to draw before the next adaptation
    boundary or the end of the run: the iterations left, times the
    stream's share of attempts, times the slots a rejected attempt draws,
    clamped to [``_TAPE_FIRST``, ``_TAPE_CAP``]. A single stream's share
    is 1. Fork-join rank r of n attempts when ranks 1..r-1 reject, so with
    q the chain's rejection rate its share is (1-q) q^(r-1) / (1-q^n), the
    reach law of ``parallel.predict_speedup``; it is 1/n before the first
    acceptance. The tape's values do not depend on its size, so this only
    trades peeks against slots left unused.
    """
    period = spec.adaptation_period
    left = min(spec.chain_size, -(-iteration // period) * period) - iteration + 1
    n = len(state.rngs)
    if n > 1:
        q = 1.0 - state.accepted_count / state.iteration
        left *= 1.0 / n if q == 1.0 else (1.0 - q) * q ** (rank - 1) / (1.0 - q**n)
    slots = math.ceil(left * (spec.dr_stage_count + 1))
    return min(max(slots, _TAPE_FIRST), _TAPE_CAP)


def _attempt(
    current: np.ndarray,
    current_logf: float,
    prop: ProposalState,
    spec: SimSpec,
    target: TargetDensity,
    rng: SplitMix64,
    iteration_hint: int,
    state: SamplerState,
    rank: int,
) -> tuple:
    """One DR attempt from ``current`` on a single stream, and its verdict.

    Tries stage 0, then up to ``spec.dr_stage_count`` delayed-rejection
    stages, stopping at the first acceptance. Consumes one slot (ndim
    Gaussian deviates plus one uniform) per stage actually attempted, and
    nothing else. The steps, the log uniforms, the kernel terms and the
    stream's position after the slots used come from the stream's
    ``KernelTape``; a precomputed ``log 0 = -inf`` gives the verdict
    ``u < alpha`` would. A new proposal re-derives the slots already
    peeked; a spent tape is followed by one of ``_tape_slots`` slots,
    sized from ``state`` and ``rank``. A target with a ``batch`` form is
    evaluated at every stage's candidate in one call; otherwise each stage
    reached makes one call. Either way the verdict is the same. A NaN or
    ``+inf`` target value at a stage the attempt reaches raises
    ``NumericalError``.
    """
    stages = spec.dr_stage_count
    tape = rng.tape
    if tape is None or tape.prop is not prop or tape.i >= tape.n or tape.stages != stages:
        if tape is not None and tape.i < tape.n and tape.stages == stages:
            tape = tape.rebased(prop)
        else:
            slots = _tape_slots(spec, state, rank, iteration_hint)
            tape = KernelTape.peek(prop, rng, stages, slots)
        rng.tape = tape
    i = tape.i
    logu = tape.logu
    batch = stages and target.batch is not None
    if batch:
        ys = current + tape.ys[i]  # every stage's candidate in one add
        fs = target(ys)
        f = fs[0]
    else:
        # One add per stage reached: a 1-D add costs about a third of the
        # broadcast add that forms every candidate.
        y = current + tape.ys[i, 0]
        f = target(y)
    if not f < _INF:  # NaN or +inf, in one comparison
        raise _bad_value(f, f"near iteration {iteration_hint}")
    if logu[i] < (f - current_logf if f < current_logf else 0.0):
        verdict = (True, ys[0] if batch else y, f, 0, 1)
    elif stages:
        # Point e is the stage-(e - 1) candidate, on slot i + e - 1; the
        # tape's logfs and memo are reused from attempt to attempt.
        logfs, memo = tape.logfs, tape.memo
        logfs[0] = current_logf
        if batch:
            logfs[1:] = fs
        else:
            logfs[1] = f
        memo.clear()
        kern, e = tape.kern, 1
        while e <= stages:
            e += 1
            if batch:
                f = logfs[e]
            else:
                y = current + tape.ys[i, e - 1]
                f = logfs[e] = target(y)
            if not f < _INF:
                raise _bad_value(f, f"near iteration {iteration_hint}")
            la = dr_log_alpha(logfs, kern, i, 0, e, memo)
            if logu[i + e - 1] < la:
                verdict = (True, ys[e - 1] if batch else y, f, e - 1, e)
                break
            if e <= stages:  # a later stage's path reuses it
                memo[0, e] = la
        else:
            verdict = _REJECTED[stages]
    else:
        verdict = _REJECTED[0]
    i += verdict[4]
    tape.i = i
    rng.state = tape.states[i]
    rng.gauss_cache = tape.caches[i]
    return verdict


def _emit_live(state: SamplerState) -> int:
    """Close the live row: append it to ``state.rows`` and return its index.

    A new maximum of logf moves the burn-in first, so the row is appended
    with its final ``burnin_loc``.
    """
    rows = state.rows
    logf = state.current_logf
    if logf > state.max_logf:
        state.max_logf = logf
        state.burnin_loc = detect_burnin(np.append(rows.logf, logf), rows.ndim)
    return rows.append(
        state.live_process_id, state.live_dr_stage, state.accepted_count / state.iteration,
        state.last_measure, state.burnin_loc, state.pending_weight, logf, state.current,
    )


def _apply_verdict(state: SamplerState, verdict: tuple, process_id: int) -> int | None:
    """Bookkeeping for one consumed iteration; returns the index of any emitted row."""
    if not verdict[0]:
        state.pending_weight += 1
        return None
    state.accepted_count += 1
    i = _emit_live(state)
    _, state.current, state.current_logf, state.live_dr_stage, _ = verdict
    state.live_process_id = process_id
    state.pending_weight = 1
    return i


def step(state: SamplerState, target: TargetDensity, spec: SimSpec):
    """One serial sweep: propose, delay-reject as configured, update weight.

    Returns ``(state, row_index_or_None)``; a row of ``state.rows`` comes
    out only when a new state is accepted, closing the previous one.
    """
    state.iteration += 1
    verdict = _attempt(
        state.current, state.current_logf, state.proposal, spec, target,
        state.rngs[0], state.iteration, state, 1,
    )
    return state, _apply_verdict(state, verdict, 1)


def worker_attempt(state: SamplerState, target: TargetDensity, spec: SimSpec,
                   rank: int) -> tuple:
    """One rank's DR attempt from the chain head, on that rank's stream; its verdict."""
    return _attempt(
        state.current, state.current_logf, state.proposal, spec, target,
        state.rngs[rank - 1], state.iteration + 1, state, rank,
    )


def fork_join_cycle(state: SamplerState, target: TargetDensity, spec: SimSpec,
                    max_steps: int | None = None):
    """One fork-join cycle from the shared chain head, evaluated lazily.

    Ranks 1, 2, ... run in turn, each a DR attempt from the head on its
    own stream, and each verdict is applied as one serial iteration: a
    rejection increments the head weight, and the first acceptance wins
    the cycle and becomes the new head. At most ``max_steps`` ranks run,
    all of them when None. Ranks past the winner or the budget are never
    evaluated, so their streams, Box-Muller caches included, stay
    untouched: a rank's stream advances only by the draws of verdicts
    the chain consumes. An eager backend that evaluates every rank
    reproduces this chain by restoring the streams of the ranks it
    discards.
    Returns ``(state, winning_rank_or_None, row_index_or_None)``.
    """
    n = len(state.rngs)
    budget = n if max_steps is None else min(n, max_steps)
    for rank in range(1, budget + 1):
        verdict = worker_attempt(state, target, spec, rank)
        state.iteration += 1
        i = _apply_verdict(state, verdict, rank)
        if i is not None:
            return state, rank, i
    return state, None, None


def detect_burnin(chain, ndim: int) -> int:
    """Smallest row index whose logf reaches within ndim/2 of the maximum."""
    logf = np.asarray(chain.logf if hasattr(chain, "logf") else chain, dtype=float)
    if logf.size == 0:
        raise UsageError("detect_burnin requires a nonempty chain")
    return int(np.argmax(logf >= logf.max() - ndim / 2.0))


def adapt_if_due(state: SamplerState, spec: SimSpec) -> SamplerState:
    """Absorb newly emitted rows into the proposal at period boundaries.

    During the first ``greedy_adaptation_count`` events only the accepted
    states since the last event are absorbed, unweighted, into fresh
    statistics (re-centering the proposal). Afterwards the weighted rows
    accumulate over the whole history. No-op off the period boundary.
    """
    if state.iteration % spec.adaptation_period != 0:
        return state
    old = state.proposal
    rows = state.rows
    new_states = rows.states[state.absorbed_rows :]
    new = old
    if len(new_states) > 0:
        if old.adaptation_count < spec.greedy_adaptation_count:
            fresh = replace(old, mean=np.zeros(rows.ndim),
                            scatter=np.zeros((rows.ndim, rows.ndim)), sample_count=0)
            new = update_mean_cov(fresh, new_states, [1] * len(new_states))
        else:
            new = update_mean_cov(old, new_states, rows.weight[state.absorbed_rows :])
    if spec.target_acceptance_window is not None:
        lo, hi = spec.target_acceptance_window
        rate = state.accepted_count / state.iteration
        nudge = 0.9 if rate < lo else 1.1 if rate > hi else None
        if nudge is not None:
            new = factorize(replace(new, scale=new.scale * nudge))
    measure = adaptation_measure(old, new) if new is not old else 0.0
    state.proposal = replace(new, adaptation_count=old.adaptation_count + 1)
    state.absorbed_rows = rows.n_rows
    state.last_measure = measure
    return state


def init_state(spec: SimSpec, target: TargetDensity) -> SamplerState:
    """Fresh sampler state: start point in slot 1, per-rank RNG streams."""
    if target.ndim != spec.ndim:
        raise UsageError(
            f"target has ndim {target.ndim}, simulation spec says {spec.ndim}"
        )
    logf0 = target(spec.start_point)
    if not logf0 < _INF:
        raise _bad_value(logf0, "at the start point")
    if logf0 == -math.inf:
        raise UsageError("start_point lies outside the target support")
    n_streams = spec.num_workers if spec.parallelism == "single_chain" else 1
    rngs = [SplitMix64(spec.seed, rank) for rank in range(1, n_streams + 1)]
    prop = initial_proposal(
        spec.ndim, spec.proposal_scale, spec.cov_epsilon, spec.dr_scale_factor
    )
    return SamplerState(
        current=spec.start_point.copy(),
        current_logf=logf0,
        iteration=1,
        accepted_count=0,
        proposal=prop,
        rngs=rngs,
        pending_weight=1,
        live_dr_stage=0,
        live_process_id=1,
        rows=CompactChain(spec.ndim),
        absorbed_rows=0,
        last_measure=0.0,
        max_logf=-math.inf,
        burnin_loc=0,
        checkpoint_count=0,
    )


# The checkpoint fields that are fields of the same name of the proposal,
# and of the sampler state; the checkpoint stores their values as they are.
_PROPOSAL_CK = tuple(name for name, _ in CHECKPOINT_FIELDS
                     if name in ProposalState.__dataclass_fields__)
_STATE_CK = tuple(name for name, _ in CHECKPOINT_FIELDS
                  if name in SamplerState.__dataclass_fields__)


def _make_checkpoint(state: SamplerState, chain_bytes: tuple[int, int]) -> RestartCheckpoint:
    """The checkpoint of ``state``, whose rows take ``chain_bytes`` (compact, verbose) on disk."""
    ck = RestartCheckpoint(
        checkpoint_index=state.checkpoint_count,
        rows_emitted=state.rows.n_rows,
        measure=state.last_measure,
        current_state=state.current.copy(),
        rng_states=[rng.getstate() for rng in state.rngs],
        chain_compact_bytes=chain_bytes[0],
        chain_verbose_bytes=chain_bytes[1],
        **{name: getattr(state, name) for name in _STATE_CK},
        **{name: getattr(state.proposal, name) for name in _PROPOSAL_CK},
    )
    state.checkpoint_count += 1
    return ck


def checkpoint_proposal(ck: RestartCheckpoint) -> ProposalState:
    """Rebuild the proposal from a checkpoint, bit-identical to the run's.

    The checkpointed epsilon already factorized, so ``factorize`` succeeds
    on its first try and keeps it.
    """
    return factorize(ProposalState(**{name: getattr(ck, name) for name in _PROPOSAL_CK}))


@dataclass
class SimulationOutputs:
    """Everything a finished run produced, in memory and on disk."""

    chain: CompactChain
    refined: refinement.RefinedSample
    report: ReportStats
    paths: dict


class _Run:
    """Owns the output files and the drive loop for one chain.

    A resumed run passes ``chain_bytes``, the (compact, verbose) byte sizes
    of ``state.rows``: the chain file is cut back to them and appended to.
    """

    def __init__(self, spec: SimSpec, target: TargetDensity, state: SamplerState,
                 on_checkpoint=None, chain_bytes: tuple[int, int] | None = None):
        self.spec = spec
        self.target = target
        self.state = state
        self.on_checkpoint = on_checkpoint
        self.paths = output_paths(spec.output_prefix, spec.file_encoding)
        parent = os.path.dirname(spec.output_prefix)
        if parent:
            os.makedirs(parent, exist_ok=True)
        # The files opened here are closed again if a later step fails.
        with ExitStack() as opened:
            # A resumed run keeps the progress lines up to the last multiple
            # of PROGRESS_EVERY it has reached, and writes the later ones
            # again; its clock starts the kept lines' elapsed time back.
            self.progress = ProgressWriter(
                self.paths["progress"], state.iteration // PROGRESS_EVERY * PROGRESS_EVERY
            )
            opened.callback(self.progress.close)
            append = chain_bytes is not None
            if append:
                cut_chain(self.paths["chain"], chain_bytes, spec.chain_format, spec.file_encoding)
            self.chain_writer = ChainWriter(
                self.paths["chain"], spec.ndim, spec.chain_format, spec.file_encoding,
                append=append, initial_bytes=chain_bytes,
            )
            opened.callback(self.chain_writer.close)
            self.restart_writer = RestartWriter(self.paths["restart"], spec, append=append)
            opened.pop_all()
        self.t0 = time.perf_counter() - self.progress.elapsed

    def checkpoint(self) -> None:
        # Rows first, checkpoint second: anything a flushed checkpoint
        # refers to must already be durable.
        writer = self.chain_writer
        writer.flush()
        self.restart_writer.append(
            _make_checkpoint(self.state, (writer.compact_bytes, writer.verbose_bytes)))
        if self.on_checkpoint is not None:
            self.on_checkpoint(self.state.iteration)

    def drive(self) -> SimulationOutputs:
        spec, state = self.spec, self.state
        period = spec.adaptation_period
        serial = len(state.rngs) == 1
        next_progress = (state.iteration // PROGRESS_EVERY + 1) * PROGRESS_EVERY
        rows, writer = state.rows, self.chain_writer
        try:
            while state.iteration < spec.chain_size:
                boundary = (state.iteration // period + 1) * period
                if serial:
                    # Serial iterations up to the next progress line or
                    # period end, whichever comes first.
                    stop = min(spec.chain_size, boundary, next_progress)
                    while state.iteration < stop:
                        i = step(state, self.target, spec)[1]
                        if i is not None:
                            writer.append(rows, i)
                else:
                    max_steps = min(spec.chain_size, boundary) - state.iteration
                    i = fork_join_cycle(state, self.target, spec, max_steps)[2]
                    if i is not None:
                        writer.append(rows, i)
                while next_progress <= state.iteration:
                    self._progress_line(next_progress)
                    next_progress += PROGRESS_EVERY
                if state.iteration % period == 0:
                    adapt_if_due(state, spec)
                    self.checkpoint()
            writer.append(rows, _emit_live(state))
            writer.close()
            if state.iteration % PROGRESS_EVERY != 0:
                self._progress_line(state.iteration)
        finally:
            self.chain_writer.close()
            self.restart_writer.close()
            self.progress.close()
        return self._finalize()

    def _progress_line(self, iteration: int) -> None:
        """The progress line of ``iteration``, with the state's counts so far."""
        state = self.state
        self.progress.line(
            iteration, state.accepted_count, state.accepted_count / state.iteration,
            state.last_measure, time.perf_counter() - self.t0,
        )

    def _finalize(self) -> SimulationOutputs:
        spec, state = self.spec, self.state
        chain = state.rows
        burnin = state.burnin_loc
        refined = refinement.refine(chain, burnin)
        write_sample(refined, self.paths["sample"])
        compact_bytes = self.chain_writer.compact_bytes
        verbose_bytes = self.chain_writer.verbose_bytes
        parallel_stats = None
        if spec.parallelism == "single_chain" and state.accepted_count > 0:
            from .parallel import contribution_stats, optimal_num_workers, predict_speedup

            mu = state.accepted_count / spec.chain_size
            contrib = contribution_stats(chain.process_id, spec.num_workers)
            n_star = optimal_num_workers(mu) if mu < 1.0 else 1
            n_max = max(2 * n_star, spec.num_workers)
            parallel_stats = ParallelStats(
                mu=mu,
                fitted_p=contrib.fitted_p,
                fit_distance=contrib.fit_distance,
                optimal_workers=n_star,
                speedup=[predict_speedup(mu, n) for n in range(1, n_max + 1)],
            )
        report = ReportStats(
            spec=spec,
            accepted_count=state.accepted_count,
            mean_accept_rate=state.accepted_count / spec.chain_size,
            burnin_loc=burnin,
            iac_history=list(refined.iac_history),
            ess=refined.ess,
            compact_bytes=compact_bytes,
            verbose_bytes=verbose_bytes,
            size_ratio=verbose_bytes / compact_bytes,
            eps_inflations=state.proposal.eps_inflations,
            parallel=parallel_stats,
        )
        # Written last: the report marks the run finished.
        write_report(report, self.paths["report"])
        return SimulationOutputs(chain=chain, refined=refined, report=report,
                                 paths=dict(self.paths))


def _run_or_resume(spec: SimSpec, target: TargetDensity, on_checkpoint=None,
                   stream: int | None = None) -> SimulationOutputs:
    """Start a fresh run if the prefix holds no output, else ``resume``.

    ``stream`` replaces the fresh run's streams with that single one; a
    resumed run takes its streams from the checkpoint.
    """
    if inspect_outputs(spec) != "absent":
        return resume(spec, target, on_checkpoint=on_checkpoint)
    state = init_state(spec, target)
    if stream is not None:
        state.rngs = [SplitMix64(spec.seed, stream)]
    run = _Run(spec, target, state, on_checkpoint=on_checkpoint)
    run.checkpoint()
    return run.drive()


def run_sampler(spec: SimSpec, target: TargetDensity, *, on_checkpoint=None) -> SimulationOutputs:
    """Run one chain to ``chain_size`` iterations and write all outputs.

    Existing output for the prefix enters the restart protocol: a finished
    run (one with a report) raises ``RunAlreadyComplete``, any other is
    resumed. ``on_checkpoint`` is called with the iteration number right
    after each checkpoint flush (used by progress displays and interrupt
    testing).
    """
    if spec.parallelism == "multi_chain":
        raise UsageError("multi_chain runs go through run_multi_chain")
    return _run_or_resume(spec, target, on_checkpoint)


def resume(spec: SimSpec, target: TargetDensity, *, on_checkpoint=None) -> SimulationOutputs:
    """Continue an unfinished run exactly where its last checkpoint left it.

    Any run without a report is unfinished, also one whose chain is
    complete. The spec must match the one echoed into the restart file
    (same seed, same prefix, same everything). The chain file is cut back to the
    byte size the checkpoint stores, in place. The restart file is kept
    when it ends with the checkpoint's record, and is otherwise replaced
    atomically, so an interrupt here loses no checkpoint; the rows past
    it are regenerated, and the finished chain file is identical to what
    the uninterrupted run would have written.
    """
    if inspect_outputs(spec) == "complete":
        raise RunAlreadyComplete(
            f"outputs for prefix {spec.output_prefix!r} already hold a complete run"
        )
    paths = output_paths(spec.output_prefix, spec.file_encoding)
    try:
        disk_chain = read_chain(paths["chain"])
        file_spec, records = read_restart(paths["restart"])
    except FileNotFoundError as exc:
        raise ResumeRefused(f"no file {exc.filename!r} to resume from") from None
    mismatched = spec.mismatched_fields(file_spec)
    if mismatched:
        raise ResumeRefused(
            "simulation spec does not match the interrupted run "
            f"(differing fields: {', '.join(mismatched)})"
        )
    # A checkpoint is usable when the chain file holds all its rows: enough
    # of them and enough bytes, which a verbose row cut among its repeats lacks.
    size = os.path.getsize(paths["chain"])
    verbose = spec.chain_format == "verbose"
    usable = [i for i, r in enumerate(records) if r.rows_emitted <= disk_chain.n_rows
              and (r.chain_compact_bytes, r.chain_verbose_bytes)[verbose] <= size]
    if not usable:
        raise ResumeRefused("restart file holds no checkpoint covered by the chain file")
    records = records[: usable[-1] + 1]
    ck = records[-1]
    kept = disk_chain.sliced(ck.rows_emitted)
    if not restart_ends_with(paths["restart"], spec, ck):
        rewrite_restart(paths["restart"], spec, records)

    state = SamplerState(
        current=ck.current_state.copy(),
        accepted_count=ck.rows_emitted,
        proposal=checkpoint_proposal(ck),
        rngs=[SplitMix64.from_state(s) for s in ck.rng_states],
        rows=kept,
        absorbed_rows=ck.rows_emitted,
        last_measure=ck.measure,
        max_logf=float(kept.logf.max()) if kept.n_rows else -math.inf,
        burnin_loc=detect_burnin(kept, spec.ndim) if kept.n_rows else 0,
        checkpoint_count=ck.checkpoint_index + 1,
        **{name: getattr(ck, name) for name in _STATE_CK},
    )
    run = _Run(spec, target, state, on_checkpoint=on_checkpoint,
               chain_bytes=(ck.chain_compact_bytes, ck.chain_verbose_bytes))
    return run.drive()


def _finished_outputs(spec: SimSpec) -> SimulationOutputs:
    """The outputs of a finished run, read back from its files."""
    paths = output_paths(spec.output_prefix, spec.file_encoding)
    report = read_report(paths["report"])
    mismatched = spec.mismatched_fields(report.spec)
    if mismatched:
        raise ResumeRefused(
            f"finished run at {spec.output_prefix!r} has another simulation spec "
            f"(differing fields: {', '.join(mismatched)})"
        )
    states, logf = read_sample(paths["sample"])
    refined = refinement.RefinedSample(states, logf, report.iac_history,
                                       report.burnin_loc, report.ess)
    return SimulationOutputs(chain=read_chain(paths["chain"]), refined=refined,
                             report=report, paths=paths)
