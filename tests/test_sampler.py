import hashlib
import itertools
import math
import os
import struct
from dataclasses import replace

import numpy as np
import pytest
import scipy.stats as st
from hypothesis import given, settings
from hypothesis import strategies as hst

import dramforge as df
from dramforge import NumericalError, ResumeRefused, RunAlreadyComplete, SimSpec, UsageError
from dramforge import sampler
from dramforge.chainio import (ChainWriter, ProgressWriter, RestartWriter, spec_echo_lines,
                               write_chain)
from dramforge.core import MAX_DR_STAGES, SplitMix64
from dramforge.proposal import initial_proposal
from dramforge.refinement import refine
from dramforge.sampler import (
    _emit_live,
    _log1mexp,
    adapt_if_due,
    detect_burnin,
    dr_log_alpha,
    dr_log_alpha2,
    init_state,
    metropolis_log_alpha,
    run_sampler,
    step,
)
from v1_files import to_v1


def sha(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


class TestMetropolisLogAlpha:
    def test_equal_density_always_accepts(self):
        assert metropolis_log_alpha(-2.0, -2.0) == 0.0

    def test_downhill(self):
        assert metropolis_log_alpha(-1.0, -3.0) == -2.0

    def test_uphill_always_accepts(self):
        assert metropolis_log_alpha(-3.0, -1.0) == 0.0


class TestLog1mAlpha:
    LN2 = math.log(2.0)
    VALUES = [-math.inf, -1e308, -745.2, -40.0, -1.0, -math.nextafter(LN2, 1.0), -LN2,
              -math.nextafter(LN2, 0.0), -1e-300, -5e-324, -0.0, 0.0, 5e-324, 1.0, 1e308,
              math.inf, math.nan]

    def test_bitwise_the_composed_form(self):
        rng = np.random.default_rng(8)
        pairs = list(itertools.product(self.VALUES, repeat=2))
        pairs += [tuple(p) for p in rng.normal(-3.0, 4.0, (2000, 2)).tolist()]
        for f_from, f_to in pairs:
            got = _log1mexp(f_to - f_from)
            want = _log1mexp(metropolis_log_alpha(f_from, f_to))
            assert struct.pack("<d", got) == struct.pack("<d", want), (f_from, f_to)

    def test_values_across_the_range(self):
        assert _log1mexp(-self.LN2) == math.log(0.5)
        assert _log1mexp(-1e-300) == pytest.approx(math.log(1e-300), rel=1e-15)
        assert _log1mexp(-40.0) == pytest.approx(-math.exp(-40.0), rel=1e-15)
        assert _log1mexp(-math.inf) == 0.0


class TestDrLogAlpha2:
    def test_perfect_symmetry_cancels(self):
        assert dr_log_alpha2(-2.0, -5.0, -2.0, -1.3, -1.3) == 0.0

    def test_zero_density_second_candidate(self):
        assert dr_log_alpha2(-2.0, -5.0, -math.inf, -1.3, -1.3) == -math.inf

    def test_rejected_first_stage_outside_support(self):
        # y1 outside the support: both alpha1 factors vanish cleanly.
        out = dr_log_alpha2(-2.0, -math.inf, -2.5, -1.0, -1.2)
        assert out == pytest.approx(min(0.0, (-2.5 - 1.0) - (-2.0 - 1.2)))

    def test_upper_bounded_at_zero(self):
        assert dr_log_alpha2(-9.0, -12.0, -1.0, -1.0, -1.0) == 0.0


def forced_proposal_state(ndim, chol_scale=0.0):
    """Proposal whose Cholesky factor is chol_scale * I (0 => propose center)."""
    prop = initial_proposal(ndim, 1.0)
    prop.chol_lower = np.eye(ndim) * chol_scale
    return prop


class TestStep:
    def test_identity_proposal_always_accepts(self, mvn4):
        spec = SimSpec(ndim=4, output_prefix="x", seed=1)
        state = init_state(spec, mvn4)
        state.proposal = forced_proposal_state(4, chol_scale=0.0)
        state, row = step(state, mvn4, spec)
        assert row is not None  # previous (start) row emitted
        assert state.rows.weight[row] == 1
        assert state.accepted_count == 1
        assert state.iteration == 2

    def test_zero_density_proposals_accumulate_weight(self):
        spec = SimSpec(ndim=2, output_prefix="x", seed=3, dr_stage_count=2)
        inside = df.TargetDensity(
            2, lambda x: 0.0 if np.array_equal(x, np.zeros(2)) else -math.inf
        )
        state = init_state(spec, inside)
        for k in range(5):
            state, row = step(state, inside, spec)
            assert row is None
        assert state.pending_weight == 6
        assert state.accepted_count == 0
        assert state.iteration == 6

    def test_rng_consumption_is_stage_deterministic(self, mvn4):
        # Rejection path consumes ndim gaussians + 1 uniform per stage tried.
        spec = SimSpec(ndim=4, output_prefix="x", seed=5, dr_stage_count=1)
        reject_all = df.TargetDensity(
            4, lambda x: 0.0 if np.array_equal(x, np.zeros(4)) else -math.inf
        )
        state = init_state(spec, reject_all)
        before = state.rngs[0].getstate()
        state, _ = step(state, reject_all, spec)
        mirror = SplitMix64.from_state(before)
        for _ in range(2):  # two stages attempted
            for _ in range(4):
                mirror.gauss()
            mirror.uniform()
        assert state.rngs[0].getstate() == mirror.getstate()

    def test_nan_target_is_fatal_with_iteration(self):
        spec = SimSpec(ndim=1, output_prefix="x", seed=2)
        bad = df.TargetDensity(1, lambda x: math.nan if abs(x[0]) > 0 else 0.0)
        state = init_state(spec, bad)
        with pytest.raises(NumericalError) as err:
            step(state, bad, spec)
        assert "iteration" in str(err.value)


def scalar_attempt(x, fx, prop, stages, target, rng):
    """DR attempt drawn one deviate at a time: ``propose``, kernel terms from
    ``log_kernel`` at candidate differences, ``dr_log_alpha``, and
    ``u < alpha`` on a fresh uniform.
    Returns ``(accepted, stage, stages_attempted, point)``.
    """
    from dramforge.proposal import log_kernel, propose

    def accepts(log_alpha):
        u = rng.uniform()
        return log_alpha >= 0.0 or (log_alpha > -math.inf if u == 0.0
                                    else math.log(u) < log_alpha)

    # Point 0 is x and point e the stage-(e-1) candidate; the kernel terms
    # are laid out as one attempt's KernelTape columns, at index 0.
    points, logfs = [x], [fx]
    kern = [[[None] for a in range(stages + 2 - dist)] for dist in range(1, stages + 1)]
    for stage in range(stages + 1):
        y = propose(prop, x, stage, rng)
        points.append(y)
        logfs.append(target(y))
        e = stage + 1
        for dist in range(1, min(e, stages) + 1):
            kern[dist - 1][e - dist][0] = log_kernel(prop, points[e - dist] - y, dist - 1)
        if accepts(dr_log_alpha(logfs, kern, 0, 0, e, {})):
            return True, stage, e, y
    return False, 0, stages + 1, None


class TestKernelTapeSteps:
    """Steps served from the kernel tape decide as scalar draws would."""

    @pytest.mark.parametrize("stages", range(MAX_DR_STAGES + 1))
    @pytest.mark.parametrize("ndim", [1, 3, 4])
    def test_verdicts_match_scalar_draws(self, stages, ndim):
        # A banana with a hole: some candidates are outside the support.
        def logf(x):
            if abs(x[0]) > 2.5:
                return -math.inf
            a = x[1:] - x[:-1] ** 2 if ndim > 1 else x
            return -float(a @ a) - 0.5 * float(x @ x)

        target = df.TargetDensity(ndim, logf)
        spec = SimSpec(ndim=ndim, output_prefix="x", seed=2**64 - 1, dr_stage_count=stages,
                       adaptation_period=37, chain_size=1200)
        state = init_state(spec, target)
        stage_seen = set()
        while state.iteration < spec.chain_size:
            mirror = state.rngs[0].copy()
            x, fx, prop = state.current, state.current_logf, state.proposal
            accepted, stage, _, point = scalar_attempt(x, fx, prop, stages, target, mirror)
            _, row = step(state, target, spec)
            assert (row is not None) == accepted
            if accepted:
                stage_seen.add(stage)
                assert state.live_dr_stage == stage
                assert np.allclose(state.current, point, rtol=1e-13, atol=1e-15)
            assert state.rngs[0].getstate() == mirror.getstate()
            if state.iteration % spec.adaptation_period == 0:
                adapt_if_due(state, spec)  # a new proposal mid-tape
        assert stage_seen == set(range(stages + 1))

    def test_scalar_draws_between_steps(self):
        # A scalar draw moves the stream behind the tape's back; the next
        # step must start from where the draw left it.
        spec = SimSpec(ndim=3, output_prefix="x", seed=7, dr_stage_count=2)
        reject_all = df.TargetDensity(
            3, lambda x: 0.0 if np.array_equal(x, np.zeros(3)) else -math.inf
        )
        state = init_state(spec, reject_all)
        mirror = state.rngs[0].copy()
        for draw in ("gauss", "gauss", "uniform", "gauss", "next_uint64"):
            step(state, reject_all, spec)
            for _ in range(3):
                for _ in range(3):
                    mirror.gauss()
                mirror.uniform()
            assert getattr(state.rngs[0], draw)() == getattr(mirror, draw)()
            assert state.rngs[0].getstate() == mirror.getstate()


class TestNonFiniteTarget:
    """NaN and +inf are fatal at every DR stage and at the start point."""

    @staticmethod
    def scripted(values):
        # Returns values[k] on the k-th call; the start point is call 0.
        calls = iter(values)
        return df.TargetDensity(2, lambda x: next(calls))

    @pytest.mark.parametrize("bad", [math.inf, math.nan])
    @pytest.mark.parametrize("stage", [0, 1, 2])
    def test_fatal_at_every_stage(self, stage, bad):
        spec = SimSpec(ndim=2, output_prefix="x", seed=4, dr_stage_count=2)
        target = self.scripted([0.0] + [-math.inf] * stage + [bad])
        state = init_state(spec, target)
        with pytest.raises(NumericalError, match="iteration 2"):
            step(state, target, spec)

    @pytest.mark.parametrize("bad", [math.inf, math.nan])
    def test_fatal_at_start_point(self, bad):
        spec = SimSpec(ndim=2, output_prefix="x", seed=4)
        with pytest.raises(NumericalError, match="start point"):
            init_state(spec, self.scripted([bad]))

    def test_plus_inf_aborts_a_run(self, tmp_path):
        spec = SimSpec(ndim=1, output_prefix=str(tmp_path / "r"), chain_size=2000, seed=2)
        spike = df.TargetDensity(1, lambda x: math.inf if x[0] > 1.0 else -0.5 * x[0] ** 2)
        with pytest.raises(NumericalError):
            run_sampler(spec, spike)

    @staticmethod
    def scripted_batch(values):
        # 0 at the start point; every attempt's batch gives ``values``.
        return df.TargetDensity(2, lambda x: 0.0, batch=lambda points: values[: len(points)])

    @pytest.mark.parametrize("bad", [math.inf, math.nan])
    @pytest.mark.parametrize("accepted", [0, 1])
    def test_batch_value_at_an_unreached_stage_is_ignored(self, accepted, bad):
        # 0.0 ties the start point, so stage 0 accepts; after a -inf at
        # stage 0, 1000.0 gives stage 1 an acceptance probability of 1.
        spec = SimSpec(ndim=2, output_prefix="x", seed=4, dr_stage_count=2)
        good = [0.0] if accepted == 0 else [-math.inf, 1000.0]
        target = self.scripted_batch(good + [bad] * (2 - accepted))
        state = init_state(spec, target)
        _, row = step(state, target, spec)
        assert row is not None and state.accepted_count == 1
        assert state.live_dr_stage == accepted and state.current_logf == good[-1]

    @pytest.mark.parametrize("bad", [math.inf, math.nan])
    @pytest.mark.parametrize("stage", [0, 1, 2])
    def test_batch_value_at_a_reached_stage_is_fatal(self, stage, bad):
        spec = SimSpec(ndim=2, output_prefix="x", seed=4, dr_stage_count=2)
        target = self.scripted_batch([-math.inf] * stage + [bad] + [0.0] * (2 - stage))
        state = init_state(spec, target)
        with pytest.raises(NumericalError, match="near iteration 2"):
            step(state, target, spec)


class TestBatchTarget:
    """A target's batch form changes no chain byte."""

    @pytest.mark.parametrize("encoding", ["ascii", "binary"])
    @pytest.mark.parametrize("workers", [1, 8])
    @pytest.mark.parametrize("stages", [0, 1, 2])
    def test_batch_and_scalar_only_targets_write_the_same_chain(self, tmp_path, stages,
                                                                 workers, encoding):
        rng = np.random.default_rng(40)
        k, ndim = 6, 4
        weights = rng.uniform(0.5, 2.0, k)
        covs = []
        for _ in range(k):
            a = rng.normal(0, 0.6, (ndim, ndim))
            covs.append(a @ a.T + 0.2 * np.eye(ndim))
        batched = df.mixture_target(weights / weights.sum(), list(rng.normal(0, 2, (k, ndim))),
                                    covs)
        scalar = df.TargetDensity(batched.ndim, batched.log_density)
        assert batched.batch is not None
        files = []
        for name, target in (("batch", batched), ("scalar", scalar)):
            spec = SimSpec(ndim=ndim, output_prefix=str(tmp_path / name), chain_size=1500,
                           seed=23, adaptation_period=100, dr_stage_count=stages,
                           file_encoding=encoding, num_workers=workers,
                           parallelism="single_chain" if workers > 1 else "none")
            out = run_sampler(spec, target)
            files.append(sha(out.paths["chain"]))
        assert files[0] == files[1]


class TestDetectBurnin:
    def test_flat_chain(self):
        assert detect_burnin(np.zeros(5), 4) == 0

    def test_spec_sequence(self):
        logf = np.array([-100.0, -50.0, -3.0, -2.2, -2.0])
        assert detect_burnin(logf, 4) == 2

    def test_mode_start_burns_in_fast(self, mvn4, prefix):
        spec = SimSpec(ndim=4, output_prefix=prefix(), chain_size=20_000, seed=6)
        out = run_sampler(spec, mvn4)
        assert out.report.burnin_loc < 0.05 * out.chain.n_rows


class TestAdaptIfDue:
    def test_noop_off_period(self, mvn4):
        spec = SimSpec(ndim=4, output_prefix="x", seed=1, adaptation_period=400)
        state = init_state(spec, mvn4)
        state.iteration = 399
        prop = state.proposal
        adapt_if_due(state, spec)
        assert state.proposal is prop
        assert state.proposal.adaptation_count == 0

    def test_scale_nudge_without_new_rows_leaves_the_old_proposal(self, mvn4):
        # No row was emitted in the period, and the acceptance rate 0 lies
        # below the window: the only change is the scale's nudge.
        spec = SimSpec(ndim=4, output_prefix="x", seed=1, adaptation_period=10,
                       target_acceptance_window=(0.2, 0.3))
        state = init_state(spec, mvn4)
        state.iteration = 10
        old = state.proposal
        before = {name: np.copy(value) if isinstance(value, np.ndarray) else value
                  for name, value in vars(old).items()}
        adapt_if_due(state, spec)
        new = state.proposal
        assert new.scale == old.scale * 0.9
        assert new.adaptation_count == 1
        assert state.last_measure > 0.0
        assert vars(old).keys() == before.keys()
        for name, value in before.items():
            now = getattr(old, name)
            if isinstance(value, np.ndarray):
                assert now.tobytes() == value.tobytes(), name
            else:
                assert now == value, name

    def test_first_adaptation_matches_weighted_covariance(self, mvn4):
        spec = SimSpec(ndim=2, output_prefix="x", seed=1, adaptation_period=10)
        target2 = df.TargetDensity(2, lambda x: -0.5 * float(x @ x))
        state = init_state(spec, target2)
        rows = [
            (np.array([1.0, 0.0]), 3),
            (np.array([0.0, 2.0]), 5),
            (np.array([-1.0, 1.0]), 2),
        ]
        for point, weight in rows:
            state.current = point
            state.current_logf = target2(point)
            state.pending_weight = weight
            state.iteration += weight
            state.accepted_count += 1
            _emit_live(state)
        state.iteration = 10
        adapt_if_due(state, spec)
        pts = np.array([p for p, _ in rows])
        ws = np.array([w for _, w in rows])
        assert np.allclose(state.proposal.mean, np.average(pts, axis=0, weights=ws))
        assert np.allclose(state.proposal.cov, np.cov(pts.T, fweights=ws, ddof=1))
        assert state.proposal.adaptation_count == 1
        assert 0.0 <= state.last_measure <= 1.0

    def test_greedy_phase_recenters_on_accepted_states(self, mvn4):
        spec = SimSpec(
            ndim=2, output_prefix="x", seed=1, adaptation_period=10,
            greedy_adaptation_count=1,
        )
        target2 = df.TargetDensity(2, lambda x: -0.5 * float(x @ x))
        state = init_state(spec, target2)
        points = [np.array([5.0, 5.0]), np.array([7.0, 5.0]), np.array([6.0, 4.0])]
        for point in points:
            state.current = point
            state.current_logf = target2(point)
            state.pending_weight = 4  # weights must be ignored in greedy phase
            state.iteration += 1
            state.accepted_count += 1
            _emit_live(state)
        state.iteration = 10
        adapt_if_due(state, spec)
        assert np.allclose(state.proposal.mean, np.mean(points, axis=0))
        assert np.allclose(state.proposal.cov, np.cov(np.array(points).T, ddof=1))
        assert state.proposal.sample_count == 3


class TestRunSampler:
    def test_refined_mean_within_ess_tolerance(self, mvn4, prefix):
        spec = SimSpec(ndim=4, output_prefix=prefix(), chain_size=30_000, seed=11)
        out = run_sampler(spec, mvn4)
        sigma = 1.0 / math.sqrt(out.report.ess)
        assert np.all(np.abs(out.refined.states.mean(axis=0)) < 4 * sigma)

    def test_well_adapted_acceptance_rates(self, mvn4, prefix):
        # Plain random-walk configuration lands in the classical
        # well-adapted Gaussian range.
        rw = SimSpec(ndim=4, output_prefix=prefix("rw"), chain_size=30_000, seed=11,
                     dr_stage_count=0)
        out = run_sampler(rw, mvn4)
        assert 0.15 <= out.report.mean_accept_rate <= 0.45
        # The default single delayed-rejection stage retries stage-0
        # rejections at half scale and recovers many of them (the DR
        # acceptance rule is detailed-balance exact; see the stationarity
        # tests), lifting the total well above the random-walk band.
        dram = SimSpec(ndim=4, output_prefix=prefix("dram"), chain_size=30_000, seed=11)
        out2 = run_sampler(dram, mvn4)
        assert 0.45 <= out2.report.mean_accept_rate <= 0.75
        assert out2.report.mean_accept_rate > out.report.mean_accept_rate

    def test_degenerate_single_iteration_run(self, mvn4, prefix):
        spec = SimSpec(ndim=4, output_prefix=prefix(), chain_size=1, seed=9)
        out = run_sampler(spec, mvn4)
        assert out.chain.n_rows == 1
        assert out.chain.weight[0] == 1
        states, logf = df.read_sample(out.paths["sample"])
        assert states.shape == (1, 4)
        assert logf[0] == 0.0

    def test_same_seed_byte_identical_chains(self, mvn4, tmp_path):
        h = []
        for name in ("a", "b"):
            spec = SimSpec(
                ndim=4, output_prefix=str(tmp_path / name), chain_size=6000, seed=123
            )
            out = run_sampler(spec, mvn4)
            h.append(sha(out.paths["chain"]))
        assert h[0] == h[1]

    def test_weights_sum_to_chain_size_exactly(self, mvn4, prefix):
        spec = SimSpec(ndim=4, output_prefix=prefix(), chain_size=7777, seed=4)
        out = run_sampler(spec, mvn4)
        assert out.chain.total_weight == 7777

    def test_final_row_rate_is_global_acceptance(self, mvn4, prefix):
        spec = SimSpec(ndim=4, output_prefix=prefix(), chain_size=5000, seed=8)
        out = run_sampler(spec, mvn4)
        expect = out.report.accepted_count / 5000
        assert abs(out.chain.mean_accept_rate[-1] - expect) < 1e-12

    def test_verbose_expansion_is_valid_trajectory(self, mvn4, prefix):
        spec = SimSpec(ndim=2, output_prefix=prefix(), chain_size=2000, seed=3)
        target2 = df.TargetDensity(2, lambda x: -0.5 * float(x @ x))
        out = run_sampler(spec, target2)
        verbose = np.repeat(out.chain.states, out.chain.weight, axis=0)
        rows = out.chain.states
        nxt = 0
        for i in range(len(verbose) - 1):
            same = np.array_equal(verbose[i + 1], verbose[i])
            if not same:
                nxt += 1
            assert same or any(
                np.array_equal(verbose[i + 1], rows[j]) for j in range(out.chain.n_rows)
            )
        assert nxt == out.chain.n_rows - 1

    def test_complete_run_refuses_rerun(self, mvn4, prefix):
        spec = SimSpec(ndim=4, output_prefix=prefix(), chain_size=500, seed=2)
        run_sampler(spec, mvn4)
        with pytest.raises(RunAlreadyComplete):
            run_sampler(spec, mvn4)

    def test_start_point_outside_support_rejected(self, prefix):
        half = df.TargetDensity(1, lambda x: 0.0 if x[0] > 0 else -math.inf)
        spec = SimSpec(ndim=1, output_prefix=prefix(), chain_size=100, seed=1)
        with pytest.raises(UsageError):
            run_sampler(spec, half)

    def test_multi_chain_mode_redirects(self, mvn4, prefix):
        spec = SimSpec(
            ndim=4, output_prefix=prefix(), chain_size=100, seed=1,
            parallelism="multi_chain", num_workers=2,
        )
        with pytest.raises(UsageError):
            run_sampler(spec, mvn4)

    def test_diminishing_adaptation_trend(self, mvn4, prefix):
        spec = SimSpec(ndim=4, output_prefix=prefix(), chain_size=20_000, seed=10)
        out = run_sampler(spec, mvn4)
        _, records = df.read_restart(out.paths["restart"])
        measures = [ck.measure for ck in records[1:]]
        k = max(1, len(measures) // 10)
        assert np.mean(measures[-k:]) < np.mean(measures[:k])

    def test_acceptance_window_nudges_proposal_scale(self, mvn4, prefix):
        # Window far above anything reachable: the scale must keep shrinking.
        spec = SimSpec(
            ndim=4, output_prefix=prefix(), chain_size=4000, seed=12,
            target_acceptance_window=(0.9, 0.95),
        )
        out = run_sampler(spec, mvn4)
        _, records = df.read_restart(out.paths["restart"])
        assert records[-1].scale < records[0].scale

    def test_greedy_phase_runs_end_to_end(self, mvn4, prefix):
        spec = SimSpec(
            ndim=4, output_prefix=prefix(), chain_size=8000, seed=3,
            greedy_adaptation_count=3,
        )
        out = run_sampler(spec, mvn4)
        assert out.chain.total_weight == 8000
        assert out.report.ess > 100

    def test_adaptation_with_zero_acceptances_in_period(self, prefix):
        # A spike target rejects everything, so every adaptation event sees
        # an empty batch; measures must stay zero and the run must finish.
        spike = df.TargetDensity(2, lambda x: 0.0 if float(x @ x) < 1e-20 else -1e9)
        spec = SimSpec(
            ndim=2, output_prefix=prefix(), chain_size=300, seed=1,
            adaptation_period=10, greedy_adaptation_count=5, dr_stage_count=0,
        )
        out = run_sampler(spec, spike)
        assert out.chain.n_rows == 1
        assert out.chain.weight[0] == 300
        _, records = df.read_restart(out.paths["restart"])
        assert all(ck.measure == 0.0 for ck in records)

    def test_detect_burnin_accepts_compact_chain(self, mvn4, prefix):
        spec = SimSpec(ndim=4, output_prefix=prefix(), chain_size=2000, seed=2)
        out = run_sampler(spec, mvn4)
        assert detect_burnin(out.chain, 4) == out.report.burnin_loc


def run_chain_in_memory(spec, target):
    """Drive the public step API without file IO; returns the sampler state."""
    state = init_state(spec, target)
    while state.iteration < spec.chain_size:
        step(state, target, spec)
    _emit_live(state)
    return state


class TestStationarity:
    def test_plain_metropolis_1d_standard_normal(self, prefix):
        # Adaptation and DR disabled: the sampler is plain Metropolis.
        target = df.TargetDensity(1, lambda x: -0.5 * float(x[0] * x[0]))
        spec = SimSpec(
            ndim=1, output_prefix=prefix(), chain_size=200_000, seed=21,
            dr_stage_count=0, adaptation_period=10**9,
        )
        out = run_sampler(spec, target)
        p = st.kstest(out.refined.states[:, 0], "norm").pvalue
        assert p > 0.01

    def test_dr_chain_preserves_stationarity(self):
        # Long-run oracle for the delayed-rejection acceptance rule.
        target = df.TargetDensity(1, lambda x: -0.5 * float(x[0] * x[0]))
        spec = SimSpec(
            ndim=1, output_prefix="unused", chain_size=1_000_000, seed=22,
            dr_stage_count=1, adaptation_period=10**9,
        )
        state = run_chain_in_memory(spec, target)
        refined = refine(state.rows, 0)
        p = st.kstest(refined.states[:, 0], "norm").pvalue
        assert p > 0.01

    def test_dr_two_stage_chain_preserves_stationarity(self):
        target = df.TargetDensity(1, lambda x: -0.5 * float(x[0] * x[0]))
        spec = SimSpec(
            ndim=1, output_prefix="unused", chain_size=300_000, seed=23,
            dr_stage_count=2, adaptation_period=10**9,
        )
        state = run_chain_in_memory(spec, target)
        refined = refine(state.rows, 0)
        p = st.kstest(refined.states[:, 0], "norm").pvalue
        assert p > 0.01

    def test_three_state_detailed_balance_desk_check(self, prefix):
        # Discrete target embedded as a piecewise-constant log-density over
        # three unit-width bins; outside the support the density is zero.
        levels = np.log(np.array([0.5, 0.3, 0.2]))

        def logf(x):
            v = x[0]
            if -0.5 <= v < 2.5:
                return float(levels[int(round(v))])
            return -math.inf

        target = df.TargetDensity(1, logf)
        spec = SimSpec(
            ndim=1, output_prefix=prefix(), chain_size=200_000, seed=24,
            dr_stage_count=1, adaptation_period=10**9, proposal_scale=1.2,
            start_point=[1.0],
        )
        out = run_sampler(spec, target)
        verbose = np.repeat(out.chain.states[:, 0], out.chain.weight)
        states = np.rint(verbose).astype(int)
        counts = np.zeros((3, 3))
        for a, b in zip(states[:-1], states[1:]):
            counts[a, b] += 1
        for i in range(3):
            for j in range(i + 1, 3):
                diff = abs(counts[i, j] - counts[j, i])
                stderr = math.sqrt(counts[i, j] + counts[j, i])
                assert diff <= 3.0 * stderr


def dr_transition_matrix(logf, logq, stages):
    """The DR transition matrix on a ring of states, summed path by path.

    ``logf[s]`` is state s's log-density (-inf off the support) and
    ``logq[k][d]`` the log-probability that stage k's kernel moves d
    places around the ring (symmetric: ``logq[k][d] == logq[k][-d]``).
    Every candidate path x, y1, y2, ... from every state is walked depth
    first, and each stage's acceptance goes through the sampler's own
    ``dr_log_alpha``. The row of a state off the support stays 0: pi
    weighs it by 0.
    """
    n = len(logf)
    P = np.zeros((n, n))

    def walk(path, reach):
        # ``path`` is x and the candidates so far; ``reach`` is the
        # probability of drawing them and rejecting all but the last.
        e = len(path) - 1
        kern = [[[logq[dist - 1][(path[a + dist] - path[a]) % n]] for a in range(e + 1 - dist)]
                for dist in range(1, e)]
        la = dr_log_alpha([logf[y] for y in path], kern, 0, 0, e, {})
        P[path[0], path[-1]] += reach * math.exp(la)
        if e <= stages:
            reach *= -math.expm1(la)
            for y in range(n):
                walk(path + [y], reach * math.exp(logq[e][(y - path[0]) % n]))

    for x in range(n):
        if logf[x] == -math.inf:
            continue
        for y1 in range(n):
            walk([x, y1], math.exp(logq[0][(y1 - x) % n]))
        P[x, x] += 1.0 - P[x].sum()
    return P


class TestDelayedRejectionExact:
    """Detailed balance of the DR kernel, exact on a finite state space.

    A ring of states with random pi, two states off the support (logf
    -inf) and a tie (equal logf, which reaches ``_log1mexp``'s guard), and
    random symmetric circulant stage kernels. The transition matrix is
    summed over every candidate path, so pi_i P_ij = pi_j P_ji must hold
    to rounding: a wrong kernel term or a missing ``log(1 - alpha)``
    factor leaves a flux imbalance of order 1e-3.
    """

    @pytest.mark.parametrize("stages, n_states",
                             [(k, s) for k in (1, 2, 3) for s in (5, 6, 7)] + [(4, 5)])
    @pytest.mark.parametrize("seed", range(4))
    def test_detailed_balance_holds_exactly(self, n_states, stages, seed):
        rng = np.random.default_rng([seed, n_states, stages])
        logf = rng.normal(0.0, 1.5, n_states)
        off, tie = rng.choice(n_states, size=4, replace=False).reshape(2, 2)
        logf[off] = -math.inf
        logf[tie[1]] = logf[tie[0]]
        logq = []
        for _ in range(stages + 1):
            c = rng.uniform(0.1, 1.0, n_states)
            c = c + np.roll(c[::-1], 1)  # c[d] == c[-d]: a symmetric kernel
            logq.append(np.log(c / c.sum()).tolist())
        logf = logf.tolist()
        P = dr_transition_matrix(logf, logq, stages)
        pi = np.exp(logf)
        pi /= pi.sum()
        assert P.min() >= -1e-15
        assert np.allclose(P.sum(axis=1)[pi > 0], 1.0, rtol=0.0, atol=1e-12)
        flux = pi[:, None] * P
        assert np.abs(flux - flux.T).max() < 1e-12


class TestRestartProtocol:
    class Interrupt(Exception):
        pass

    def _interrupted_run(self, spec, target, at_iteration):
        def hook(iteration):
            if iteration >= at_iteration:
                raise self.Interrupt

        with pytest.raises(self.Interrupt):
            run_sampler(spec, target, on_checkpoint=hook)

    @pytest.mark.parametrize("encoding", ["ascii", "binary"])
    @pytest.mark.parametrize("chain_format", ["compact", "verbose"])
    def test_resume_reproduces_uninterrupted_bytes(self, mvn4, tmp_path, encoding,
                                                   chain_format):
        ref = SimSpec(
            ndim=4, output_prefix=str(tmp_path / "ref"), chain_size=9000, seed=77,
            file_encoding=encoding, chain_format=chain_format,
        )
        run_sampler(ref, mvn4)
        spec = SimSpec(
            ndim=4, output_prefix=str(tmp_path / "twin"), chain_size=9000, seed=77,
            file_encoding=encoding, chain_format=chain_format,
        )
        self._interrupted_run(spec, mvn4, at_iteration=3000)
        out = df.resume(spec, mvn4)
        assert out.chain.total_weight == 9000
        ext = "txt" if encoding == "ascii" else "bin"
        assert sha(tmp_path / f"ref_chain.{ext}") == sha(tmp_path / f"twin_chain.{ext}")
        assert sha(tmp_path / "ref_sample.txt") == sha(tmp_path / "twin_sample.txt")

    @pytest.mark.parametrize("encoding", ["ascii", "binary"])
    def test_resume_reuses_what_is_on_disk(self, mvn4, tmp_path, monkeypatch, encoding):
        # Stopped right after a checkpoint: the restart file ends with its
        # record and is kept, and no kept row is formatted again.
        spec = SimSpec(ndim=4, output_prefix=str(tmp_path / "r"), chain_size=6000, seed=5,
                       file_encoding=encoding)
        self._interrupted_run(spec, mvn4, at_iteration=3000)
        kept = df.read_chain(df.output_paths(spec.output_prefix, encoding)["chain"]).n_rows
        formatted, ascii_block = [], df.chainio._ascii_block

        def counting_block(records, weight_one):
            formatted.append(records.size)
            return ascii_block(records, weight_one)

        def rewrite(*args):
            raise AssertionError("restart file rewritten")

        monkeypatch.setattr(df.chainio, "_ascii_block", counting_block)
        monkeypatch.setattr(sampler, "rewrite_restart", rewrite)
        out = df.resume(spec, mvn4)
        assert sum(formatted) == (out.chain.n_rows - kept if encoding == "ascii" else 0)

    @pytest.mark.parametrize("encoding", ["ascii", "binary"])
    def test_eps_inflations_carry_through_a_resume(self, mvn4, tmp_path, encoding):
        # No mvn4 run inflates epsilon, so the last record is given a count.
        spec = SimSpec(ndim=4, output_prefix=str(tmp_path / "r"), chain_size=4000, seed=5,
                       file_encoding=encoding)
        self._interrupted_run(spec, mvn4, at_iteration=2000)
        path = df.output_paths(spec.output_prefix, encoding)["restart"]
        file_spec, records = df.read_restart(path)
        records[-1] = replace(records[-1], eps_inflations=3)
        df.chainio.rewrite_restart(path, file_spec, records)
        out = df.resume(spec, mvn4)
        assert out.report.eps_inflations == 3
        assert df.read_report(out.paths["report"]).eps_inflations == 3
        later = df.read_restart(path)[1][len(records) :]
        assert later and {ck.eps_inflations for ck in later} == {3}

    def test_resume_with_acceptance_window_byte_identical(self, mvn4, tmp_path):
        # Scale nudges are part of the checkpointed proposal state.
        kwargs = dict(ndim=4, chain_size=8000, seed=5,
                      target_acceptance_window=(0.2, 0.3))
        ref = SimSpec(output_prefix=str(tmp_path / "ref"), **kwargs)
        run_sampler(ref, mvn4)
        spec = SimSpec(output_prefix=str(tmp_path / "twin"), **kwargs)
        self._interrupted_run(spec, mvn4, at_iteration=3000)
        df.resume(spec, mvn4)
        assert sha(tmp_path / "ref_chain.txt") == sha(tmp_path / "twin_chain.txt")

    def test_fork_join_resume_reproduces_uninterrupted_bytes(self, mvn4, tmp_path):
        ref = SimSpec(
            ndim=4, output_prefix=str(tmp_path / "ref"), chain_size=8000, seed=31,
            parallelism="single_chain", num_workers=4,
        )
        run_sampler(ref, mvn4)
        spec = SimSpec(
            ndim=4, output_prefix=str(tmp_path / "twin"), chain_size=8000, seed=31,
            parallelism="single_chain", num_workers=4,
        )
        self._interrupted_run(spec, mvn4, at_iteration=2500)
        out = df.resume(spec, mvn4)
        assert out.chain.total_weight == 8000
        assert sha(tmp_path / "ref_chain.txt") == sha(tmp_path / "twin_chain.txt")

    def test_run_sampler_auto_resumes_incomplete(self, mvn4, tmp_path):
        spec = SimSpec(ndim=4, output_prefix=str(tmp_path / "r"), chain_size=6000, seed=5)
        self._interrupted_run(spec, mvn4, at_iteration=2000)
        out = run_sampler(spec, mvn4)  # restart protocol, not a fresh run
        assert out.chain.total_weight == 6000

    def test_resume_from_initial_checkpoint(self, mvn4, tmp_path):
        # Interrupt at the very first checkpoint: only the header and
        # checkpoint 0 are on disk, so resume replays the whole run.
        ref = SimSpec(ndim=4, output_prefix=str(tmp_path / "ref"), chain_size=3000, seed=6)
        run_sampler(ref, mvn4)
        spec = SimSpec(ndim=4, output_prefix=str(tmp_path / "twin"), chain_size=3000, seed=6)
        self._interrupted_run(spec, mvn4, at_iteration=1)
        out = df.resume(spec, mvn4)
        assert out.chain.total_weight == 3000
        assert sha(tmp_path / "ref_chain.txt") == sha(tmp_path / "twin_chain.txt")

    @pytest.mark.parametrize("cut_fraction", [0.97, 0.35])
    def test_resume_after_midline_truncation(self, mvn4, tmp_path, cut_fraction):
        # Simulate a kill mid-write: the chain file loses its tail partway
        # through a line. A shallow cut keeps the last checkpoint usable; a
        # deep cut forces fallback to an earlier one. Both must reproduce
        # the uninterrupted bytes.
        ref = SimSpec(ndim=4, output_prefix=str(tmp_path / "ref"), chain_size=6000, seed=8)
        run_sampler(ref, mvn4)
        spec = SimSpec(ndim=4, output_prefix=str(tmp_path / "twin"), chain_size=6000, seed=8)
        self._interrupted_run(spec, mvn4, at_iteration=3000)
        chain_path = str(tmp_path / "twin_chain.txt")
        blob = open(chain_path, "rb").read()
        cut = blob[: int(len(blob) * cut_fraction)]
        while cut.endswith(b"\n"):
            cut = cut[:-1]
        open(chain_path, "wb").write(cut)
        out = df.resume(spec, mvn4)
        assert out.chain.total_weight == 6000
        assert sha(tmp_path / "ref_chain.txt") == sha(tmp_path / "twin_chain.txt")

    def test_resume_of_complete_run_refused(self, mvn4, prefix):
        spec = SimSpec(ndim=4, output_prefix=prefix(), chain_size=400, seed=5)
        run_sampler(spec, mvn4)
        with pytest.raises(RunAlreadyComplete):
            df.resume(spec, mvn4)

    def test_resume_with_changed_seed_refused(self, mvn4, tmp_path):
        spec = SimSpec(ndim=4, output_prefix=str(tmp_path / "r"), chain_size=6000, seed=5)
        self._interrupted_run(spec, mvn4, at_iteration=2000)
        with pytest.raises(ResumeRefused) as err:
            df.resume(spec.with_updates(seed=6), mvn4)
        assert "seed" in str(err.value)

    def test_resume_without_restart_file_refused(self, mvn4, tmp_path):
        spec = SimSpec(ndim=4, output_prefix=str(tmp_path / "r"), chain_size=6000, seed=5)
        self._interrupted_run(spec, mvn4, at_iteration=2000)
        os.remove(str(tmp_path / "r_restart.txt"))
        with pytest.raises(ResumeRefused):
            df.resume(spec, mvn4)

    def test_complete_run_without_restart_file_refused(self, mvn4, tmp_path):
        spec = SimSpec(ndim=4, output_prefix=str(tmp_path / "r"), chain_size=400, seed=5)
        run_sampler(spec, mvn4)
        os.remove(str(tmp_path / "r_restart.txt"))
        with pytest.raises(RunAlreadyComplete):
            run_sampler(spec, mvn4)

    def test_resume_refuses_rows_in_another_format(self, mvn4, tmp_path):
        # A kept row spelled differently (here a zero-padded ProcessID) moves
        # the byte where the checkpoint's rows end, so the chain cannot be cut.
        spec = SimSpec(ndim=4, output_prefix=str(tmp_path / "r"), chain_size=6000, seed=5)
        self._interrupted_run(spec, mvn4, at_iteration=2000)
        chain_path = str(tmp_path / "r_chain.txt")
        header, rest = open(chain_path, "rb").read().split(b"\n", 1)
        open(chain_path, "wb").write(header + b"\n0" + rest)
        with pytest.raises(ResumeRefused):
            df.resume(spec, mvn4)

    @pytest.mark.parametrize("encoding", ["ascii", "binary"])
    def test_resume_after_a_cut_among_a_verbose_rows_repeats(self, mvn4, tmp_path, encoding):
        # The chain file loses the last repeat of the last row of a
        # checkpoint, as a crash can lose bytes that were flushed but not
        # synced: that checkpoint is no longer usable, and the resume falls
        # back to the one before it.
        kwargs = dict(ndim=4, chain_size=6000, seed=8, file_encoding=encoding,
                      chain_format="verbose")
        ref = run_sampler(SimSpec(output_prefix=str(tmp_path / "ref"), **kwargs), mvn4)
        spec = SimSpec(output_prefix=str(tmp_path / "twin"), **kwargs)
        self._interrupted_run(spec, mvn4, at_iteration=3200)
        paths = df.output_paths(spec.output_prefix, encoding)
        ck = next(ck for ck in df.read_restart(paths["restart"])[1][::-1]
                  if ck.rows_emitted and ref.chain.weight[ck.rows_emitted - 1] > 1)
        with open(paths["chain"], "rb") as fh:
            kept = fh.read(ck.chain_verbose_bytes)
        repeat = 80 if encoding == "binary" else len(kept) - 1 - kept.rindex(b"\n", 0, -1)
        with open(paths["chain"], "wb") as fh:
            fh.write(kept[:-repeat])
        df.resume(spec, mvn4)
        for name in ("chain", "sample"):
            assert sha(ref.paths[name]) == sha(paths[name]), name

    @staticmethod
    def _latest_usable_iteration(paths):
        disk = df.read_chain(paths["chain"])
        _, records = df.read_restart(paths["restart"])
        return max(ck.iteration for ck in records if ck.rows_emitted <= disk.n_rows)

    @pytest.mark.parametrize("writer", [ChainWriter, RestartWriter])
    @pytest.mark.parametrize("encoding", ["ascii", "binary"])
    @pytest.mark.parametrize("chain_format", ["compact", "verbose"])
    def test_interrupt_during_resume_keeps_the_checkpoint(self, mvn4, tmp_path, monkeypatch,
                                                         writer, encoding, chain_format):
        # An interrupt at the second chain row or restart record that a
        # resume writes must not lose a checkpoint the files already held.
        kwargs = dict(ndim=4, chain_size=6000, seed=41, file_encoding=encoding,
                      chain_format=chain_format)
        ref = run_sampler(SimSpec(output_prefix=str(tmp_path / "ref"), **kwargs), mvn4)
        spec = SimSpec(output_prefix=str(tmp_path / "twin"), **kwargs)
        self._interrupted_run(spec, mvn4, at_iteration=3200)
        paths = df.output_paths(spec.output_prefix, encoding)
        before = self._latest_usable_iteration(paths)
        assert before == 3200

        calls = []
        append = writer.append

        def interrupted_append(self_, *args):
            calls.append(args)
            if len(calls) == 2:
                raise self.Interrupt
            return append(self_, *args)

        with monkeypatch.context() as patch:
            patch.setattr(writer, "append", interrupted_append)
            with pytest.raises(self.Interrupt):
                df.resume(spec, mvn4)
        assert self._latest_usable_iteration(paths) >= before

        df.resume(spec, mvn4)
        for name in ("chain", "sample"):
            assert sha(ref.paths[name]) == sha(paths[name]), name
        assert not os.path.exists(paths["restart"] + ".tmp")

    def test_write_ahead_ordering_invariant(self, mvn4, tmp_path):
        spec = SimSpec(ndim=4, output_prefix=str(tmp_path / "r"), chain_size=8000, seed=9)
        self._interrupted_run(spec, mvn4, at_iteration=4000)
        disk = df.read_chain(str(tmp_path / "r_chain.txt"))
        _, records = df.read_restart(str(tmp_path / "r_restart.txt"))
        last = records[-1]
        assert last.rows_emitted <= disk.n_rows
        # At most one adaptation period of rows past the checkpoint.
        extra_weight = int(disk.weight[last.rows_emitted:].sum())
        assert extra_weight <= spec.adaptation_period

    def test_restart_record_count_is_adaptations_plus_one(self, mvn4, prefix):
        spec = SimSpec(
            ndim=4, output_prefix=prefix(), chain_size=4000, seed=3,
            adaptation_period=400,
        )
        out = run_sampler(spec, mvn4)
        _, records = df.read_restart(out.paths["restart"])
        assert len(records) == 4000 // 400 + 1

    def test_restart_measures_match_in_memory_history(self, mvn4, prefix):
        spec = SimSpec(ndim=4, output_prefix=prefix(), chain_size=3000, seed=3)
        out = run_sampler(spec, mvn4)
        _, records = df.read_restart(out.paths["restart"])
        file_measures = [(ck.iteration, ck.measure) for ck in records[1:]]
        row_measure_set = set(out.chain.adaptation_measure.tolist())
        assert all(m in row_measure_set or m >= 0 for _, m in file_measures)
        iters = [it for it, _ in file_measures]
        assert iters == [400 * k for k in range(1, len(iters) + 1)]


@pytest.fixture(scope="module", params=["ascii", "binary"])
def cut_run(request, tmp_path_factory):
    """An interrupted run's chain and restart bytes, the byte where a cut
    may start in each, and the uninterrupted run's chain and sample sha."""
    encoding = request.param
    target = df.TargetDensity(4, lambda x: -0.5 * float(x @ x))
    root = tmp_path_factory.mktemp(f"cut-{encoding}")
    kwargs = dict(ndim=4, chain_size=3000, seed=19, file_encoding=encoding)
    ref = run_sampler(SimSpec(output_prefix=str(root / "ref"), **kwargs), target)
    spec = SimSpec(output_prefix=str(root / "twin"), **kwargs)

    def hook(iteration):
        if iteration >= 2000:
            raise TestRestartProtocol.Interrupt

    with pytest.raises(TestRestartProtocol.Interrupt):
        run_sampler(spec, target, on_checkpoint=hook)
    paths = df.output_paths(spec.output_prefix, encoding)
    saved = {name: open(paths[name], "rb").read() for name in ("chain", "restart")}
    if encoding == "ascii":
        starts = {"chain": saved["chain"].index(b"\n") + 1,
                  "restart": saved["restart"].index(b"[checkpoint 1]")}
    else:
        # Restart: 16-byte header, spec echo, then length-prefixed records.
        off = 16 + int.from_bytes(saved["restart"][12:16], "little")
        ck0_len = int.from_bytes(saved["restart"][off : off + 4], "little")
        starts = {"chain": 20, "restart": off + 4 + ck0_len}
    want = {name: sha(ref.paths[name]) for name in ("chain", "sample")}
    return spec, target, paths, saved, starts, want


class TestResumeAfterCut:
    @settings(max_examples=25, deadline=None)
    @given(which=hst.sampled_from(["chain", "restart"]), data=hst.data())
    def test_cut_at_any_byte_resumes_to_uninterrupted_bytes(self, cut_run, which, data):
        # An interrupt can stop either file at any byte; the resume falls
        # back to the last checkpoint both files still cover.
        spec, target, paths, saved, starts, want = cut_run
        cut = data.draw(hst.integers(starts[which], len(saved[which])), label="cut")
        # The examples share one prefix: an interrupted run has no sample or
        # report, so remove the ones the previous example's resume wrote.
        for name in ("sample", "report"):
            if os.path.exists(paths[name]):
                os.remove(paths[name])
        for name, blob in saved.items():
            with open(paths[name], "wb") as fh:
                fh.write(blob[:cut] if name == which else blob)
        df.resume(spec, target)
        for name, digest in want.items():
            assert sha(paths[name]) == digest, name


OUTPUTS = ("chain", "restart", "sample", "report")


def _finalize_spec(encoding, chain_format, workers):
    # A relative prefix: the restart file and the report echo it, so runs
    # compared byte for byte use one prefix in different directories. The
    # fork-join run's last checkpoint is its last iteration; the serial
    # run's is 200 iterations before it.
    fork_join = dict(parallelism="single_chain", num_workers=workers) if workers > 1 else {}
    return SimSpec(ndim=4, output_prefix="run", chain_size=3000 if workers == 1 else 3200,
                   seed=61, file_encoding=encoding, chain_format=chain_format, **fork_join)


def _progress_iterations(path):
    with open(path, encoding="utf-8") as fh:
        return [int(line.split(",")[0]) for line in fh.read().splitlines()[1:]]


@pytest.fixture(scope="module")
def uninterrupted(tmp_path_factory):
    """Per spec, the sha256 of each output of an uninterrupted run, and the
    iterations of its progress lines; each spec runs once."""
    target = df.TargetDensity(4, lambda x: -0.5 * float(x @ x))
    done = {}

    def get(spec):
        key = tuple(spec_echo_lines(spec))
        if key not in done:
            cwd = os.getcwd()
            os.chdir(tmp_path_factory.mktemp("uninterrupted"))
            try:
                paths = run_sampler(spec, target).paths
                done[key] = ({name: sha(paths[name]) for name in OUTPUTS},
                             _progress_iterations(paths["progress"]))
            finally:
                os.chdir(cwd)
        return done[key]

    return get


class TestUnfinishedRun:
    """A run without a report is unfinished, and ``run_sampler`` resumes it."""

    class Interrupt(Exception):
        pass

    @pytest.mark.parametrize("workers", [1, 4])
    @pytest.mark.parametrize("encoding", ["ascii", "binary"])
    @pytest.mark.parametrize("chain_format", ["compact", "verbose"])
    @pytest.mark.parametrize("kill", ["in_sample", "in_report", "before_rename"])
    def test_interrupted_finalize_resumes_to_uninterrupted_bytes(
            self, mvn4, tmp_path, monkeypatch, uninterrupted, kill, chain_format, encoding,
            workers):
        # The chain file is complete; the sample is cut short, or the
        # report's temporary file is cut short or never renamed.
        spec = _finalize_spec(encoding, chain_format, workers)
        want, want_progress = uninterrupted(spec)
        monkeypatch.chdir(tmp_path)
        interrupt = self.Interrupt
        write_sample, replace = sampler.write_sample, os.replace

        def torn_sample(refined, path):
            write_sample(refined, path)
            os.truncate(path, os.path.getsize(path) // 2)
            raise interrupt

        def torn_report(src, dst):
            if not dst.endswith("_report.txt"):
                return replace(src, dst)
            if kill == "in_report":
                os.truncate(src, os.path.getsize(src) // 2)
            raise interrupt

        with monkeypatch.context() as patch:
            if kill == "in_sample":
                patch.setattr(sampler, "write_sample", torn_sample)
            else:
                patch.setattr(os, "replace", torn_report)
            with pytest.raises(interrupt):
                run_sampler(spec, mvn4)
        paths = df.output_paths(spec.output_prefix, encoding)
        assert df.read_chain(paths["chain"]).total_weight == spec.chain_size
        assert not os.path.exists(paths["report"])
        assert df.inspect_outputs(spec) == "incomplete"

        run_sampler(spec, mvn4)
        assert {name: sha(paths[name]) for name in OUTPUTS} == want
        assert _progress_iterations(paths["progress"]) == want_progress
        assert not os.path.exists(paths["report"] + ".tmp")
        assert df.inspect_outputs(spec) == "complete"

    @pytest.mark.parametrize("workers", [1, 8])
    @pytest.mark.parametrize("encoding", ["ascii", "binary"])
    @pytest.mark.parametrize("chain_format", ["compact", "verbose"])
    def test_version1_prefix_resumes_to_uninterrupted_bytes(
            self, mvn4, tmp_path, monkeypatch, uninterrupted, chain_format, encoding, workers):
        # Stopped before checkpoint 2000 reached the restart file, with the
        # chain flushed past it and its last row torn, then converted to
        # version 1. A binary chain's upgrade is first interrupted before the
        # restart file's; the next resume upgrades both.
        spec = _finalize_spec(encoding, chain_format, workers)
        want = uninterrupted(spec)[0]
        monkeypatch.chdir(tmp_path)
        interrupt, append = self.Interrupt, RestartWriter.append

        def stop_at_2000(writer, ck):
            if ck.iteration == 2000:
                raise interrupt
            append(writer, ck)

        def interrupted(*args):
            raise interrupt

        with monkeypatch.context() as patch:
            patch.setattr(RestartWriter, "append", stop_at_2000)
            with pytest.raises(interrupt):
                run_sampler(spec, mvn4)
        paths = df.output_paths(spec.output_prefix, encoding)
        os.truncate(paths["chain"], os.path.getsize(paths["chain"]) - 5)
        to_v1(paths)
        if encoding == "binary":
            with monkeypatch.context() as patch:
                patch.setattr(sampler, "rewrite_restart", interrupted)
                with pytest.raises(interrupt):
                    run_sampler(spec, mvn4)
            for name, version in (("chain", 2), ("restart", 1)):
                with open(paths[name], "rb") as fh:
                    assert struct.unpack("<4sI", fh.read(8))[1] == version, name
        run_sampler(spec, mvn4)
        assert {name: sha(paths[name]) for name in OUTPUTS} == want
        assert not os.path.exists(paths["chain"] + ".tmp")

    @pytest.mark.parametrize("progress", ["kept", "missing"])
    def test_resume_cuts_progress_back_to_the_checkpoint(self, mvn4, tmp_path, monkeypatch,
                                                         uninterrupted, progress):
        # Killed after progress line 3000 and before checkpoint 3200 reached
        # the restart file: the resume starts at checkpoint 2800.
        spec = _finalize_spec("ascii", "compact", 1).with_updates(chain_size=6000)
        want = uninterrupted(spec)[1]
        monkeypatch.chdir(tmp_path)
        interrupt, append = self.Interrupt, RestartWriter.append

        def stop_at_3200(writer, ck):
            if ck.iteration == 3200:
                raise interrupt
            append(writer, ck)

        with monkeypatch.context() as patch:
            patch.setattr(RestartWriter, "append", stop_at_3200)
            with pytest.raises(interrupt):
                run_sampler(spec, mvn4)
        paths = df.output_paths(spec.output_prefix, "ascii")
        assert _progress_iterations(paths["progress"]) == [1000, 2000, 3000]
        if progress == "missing":  # counts as empty
            os.remove(paths["progress"])
            want = [it for it in want if it > 2000]
        run_sampler(spec, mvn4)
        assert _progress_iterations(paths["progress"]) == want
        assert want[-3:] == [4000, 5000, 6000]


    def test_resumed_progress_goes_on_with_the_elapsed_time(self, mvn4, tmp_path,
                                                            monkeypatch, uninterrupted):
        # Interrupted before checkpoint 3200: the resume keeps the lines up
        # to 2000, and its elapsed column goes on from line 2000's.
        spec = _finalize_spec("ascii", "compact", 1).with_updates(chain_size=6000)
        want = uninterrupted(spec)[1]
        monkeypatch.chdir(tmp_path)
        interrupt, append = self.Interrupt, RestartWriter.append

        def stop_at_3200(writer, ck):
            if ck.iteration == 3200:
                raise interrupt
            append(writer, ck)

        with monkeypatch.context() as patch:
            patch.setattr(RestartWriter, "append", stop_at_3200)
            with pytest.raises(interrupt):
                run_sampler(spec, mvn4)
        paths = df.output_paths(spec.output_prefix, "ascii")
        with open(paths["progress"], encoding="utf-8") as fh:
            kept = fh.read().splitlines()[1:3]
        run_sampler(spec, mvn4)
        with open(paths["progress"], encoding="utf-8") as fh:
            lines = fh.read().splitlines()[1:]
        assert lines[:2] == kept
        assert [int(line.split(",")[0]) for line in lines] == want
        elapsed = [float(line.split(",")[4]) for line in lines]
        assert elapsed == sorted(elapsed)


    def test_refused_resume_closes_the_progress_file(self, mvn4, tmp_path, monkeypatch):
        # The progress file is opened before the chain file is checked; a
        # resume refused by that check closes it again.
        spec = _finalize_spec("ascii", "compact", 1)
        monkeypatch.chdir(tmp_path)
        interrupt = self.Interrupt

        def stop_at_1200(iteration):
            if iteration >= 1200:
                raise interrupt

        with pytest.raises(interrupt):
            run_sampler(spec, mvn4, on_checkpoint=stop_at_1200)
        path = df.output_paths(spec.output_prefix, "ascii")["chain"]
        with open(path, "rb") as fh:
            lines = fh.read().split(b"\n")
        lines[1] += b"0"  # the kept rows no longer end on a line break
        with open(path, "wb") as fh:
            fh.write(b"\n".join(lines))
        closed, close = [], ProgressWriter.close

        def recording_close(writer):
            closed.append(writer)
            close(writer)

        monkeypatch.setattr(ProgressWriter, "close", recording_close)
        with pytest.raises(ResumeRefused, match="not written by this version"):
            run_sampler(spec, mvn4)
        assert len(closed) == 1 and closed[0]._fh.closed


class TestReportContents:
    def test_report_echo_roundtrips_spec(self, mvn4, prefix):
        spec = SimSpec(ndim=4, output_prefix=prefix(), chain_size=1500, seed=13,
                       proposal_scale=0.9)
        out = run_sampler(spec, mvn4)
        back = df.read_report(out.paths["report"])
        assert back.spec == spec
        assert back.spec.provenance["proposal_scale"] == "user"
        assert back.spec.provenance["dr_stage_count"] == "default"

    def test_size_ratio_accounts_measured_bytes(self, mvn4, tmp_path):
        spec = SimSpec(ndim=4, output_prefix=str(tmp_path / "r"), chain_size=3000, seed=1)
        out = run_sampler(spec, mvn4)
        verbose_path = str(tmp_path / "verbose.txt")
        write_chain(out.chain, verbose_path, "verbose", "ascii")
        measured = os.path.getsize(verbose_path) / os.path.getsize(out.paths["chain"])
        assert abs(out.report.verbose_bytes - os.path.getsize(verbose_path)) <= 1
        assert out.report.size_ratio == pytest.approx(measured, abs=1e-9)

    def test_progress_file_cadence(self, mvn4, prefix):
        spec = SimSpec(ndim=4, output_prefix=prefix(), chain_size=3500, seed=1)
        out = run_sampler(spec, mvn4)
        lines = open(out.paths["progress"]).read().splitlines()
        assert lines[0].startswith("iter,")
        iters = [int(ln.split(",")[0]) for ln in lines[1:]]
        assert iters == [1000, 2000, 3000, 3500]

    def test_outputs_parse_back_to_in_memory_values(self, mvn4, prefix):
        spec = SimSpec(ndim=4, output_prefix=prefix(), chain_size=2500, seed=19)
        out = run_sampler(spec, mvn4)
        assert df.read_chain(out.paths["chain"]) == out.chain
        states, logf = df.read_sample(out.paths["sample"])
        assert np.array_equal(states, out.refined.states)
        assert np.array_equal(logf, out.refined.logf)
        back = df.read_report(out.paths["report"])
        assert back.spec == spec
        assert back.ess == out.report.ess
        assert back.iac_history == list(out.report.iac_history)


class TestTapeSizing:
    """Tape sizes are a cost decision: every file keeps its bytes whatever
    number of slots each new kernel tape holds."""

    class Interrupt(Exception):
        pass

    @staticmethod
    def mixture():
        means = np.random.default_rng(5).standard_normal((16, 4))
        return df.mixture_target(np.full(16, 1 / 16), means, [np.eye(4)] * 16)

    CASES = {
        "serial-dr0": dict(chain_size=2950, dr_stage_count=0),
        "serial-dr1": dict(chain_size=2950, dr_stage_count=1),
        "serial-dr2": dict(chain_size=2950, dr_stage_count=2),
        "mixture-8-workers-resumed": dict(chain_size=1500, dr_stage_count=2,
                                          file_encoding="binary", parallelism="single_chain",
                                          num_workers=8),
        "fork-join-resumed": dict(chain_size=2000, dr_stage_count=1,
                                  parallelism="single_chain", num_workers=4),
    }

    def digests(self, case, monkeypatch, tmp_path, slots):
        # One relative prefix in per-run directories: the restart file and
        # the report echo it.
        if slots is not None:
            monkeypatch.setattr(sampler, "_tape_slots", lambda *args: slots)
        tmp_path.mkdir()
        monkeypatch.chdir(tmp_path)
        kwargs = self.CASES[case]
        spec = SimSpec(ndim=4, output_prefix="run", seed=29, **kwargs)
        if case.startswith("mixture"):
            target = self.mixture()
            assert target.batch is not None
        else:
            target = df.TargetDensity(4, lambda x: -0.5 * float(x @ x))
        if case.endswith("resumed"):
            def stop_at_800(iteration):
                if iteration >= 800:
                    raise self.Interrupt

            with pytest.raises(self.Interrupt):
                run_sampler(spec, target, on_checkpoint=stop_at_800)
            assert not os.path.exists("run_report.txt")
        paths = run_sampler(spec, target).paths
        digests = {name: sha(paths[name]) for name in OUTPUTS}
        monkeypatch.undo()
        return digests

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_forced_sizes_keep_every_file(self, case, monkeypatch, tmp_path):
        want = self.digests(case, monkeypatch, tmp_path / "rule", None)
        for slots in (1, sampler._TAPE_CAP):
            got = self.digests(case, monkeypatch, tmp_path / f"slots{slots}", slots)
            assert got == want, (case, slots)

    def test_rule_sizes_each_stream_to_its_expected_draws(self):
        spec = SimSpec(ndim=4, output_prefix="x", chain_size=1000, seed=1, dr_stage_count=2,
                       parallelism="single_chain", num_workers=4)
        state = init_state(spec, df.TargetDensity(4, lambda x: -0.5 * float(x @ x)))
        slots = sampler._tape_slots
        # Before any acceptance each of the 4 ranks gets a quarter of the
        # 399 iterations left in the period, at 3 slots an attempt.
        assert [slots(spec, state, r, 2) for r in (1, 4)] == [300, 300]
        state.iteration, state.accepted_count = 100, 50  # q = 1/2
        shares = [0.5**r / (1 - 0.5**4) for r in range(1, 5)]
        want = [min(max(math.ceil(300 * s * 3), 16), 1024) for s in shares]
        assert [slots(spec, state, r, 101) for r in range(1, 5)] == want
        # The end of the run bounds the iterations left, and the clamps hold.
        assert slots(spec, state, 1, 999) == 16
        serial = replace(spec, parallelism="none", num_workers=1)
        state.rngs = state.rngs[:1]
        assert slots(serial, state, 1, 1) == 1024
        assert slots(serial, state, 1, 701) == 3 * 100
