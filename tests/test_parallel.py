import hashlib
import math

import numpy as np
import pytest
import scipy.stats as st

import dramforge as df
from dramforge import RunAlreadyComplete, SimSpec, UsageError
from dramforge.chainio import RestartWriter, chain_specs
from dramforge.core import SplitMix64
from dramforge.parallel import (
    KS_MIN_POINTS,
    compare_refined_samples,
    contribution_stats,
    fit_geometric,
    kolmogorov_sf,
    ks_two_sample,
    optimal_num_workers,
    predict_speedup,
    run_multi_chain,
)
from dramforge import sampler
from dramforge.sampler import _apply_verdict, _attempt, fork_join_cycle, init_state, worker_attempt


def sha(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


class TestForkJoinCycle:
    def test_single_worker_matches_serial_run(self, mvn4, tmp_path):
        serial = SimSpec(ndim=4, output_prefix=str(tmp_path / "s"), chain_size=5000, seed=5)
        fj = SimSpec(
            ndim=4, output_prefix=str(tmp_path / "f"), chain_size=5000, seed=5,
            parallelism="single_chain", num_workers=1,
        )
        df.run_sampler(serial, mvn4)
        df.run_sampler(fj, mvn4)
        assert sha(tmp_path / "s_chain.txt") == sha(tmp_path / "f_chain.txt")

    def test_all_workers_reject_increments_weight(self):
        spike = df.TargetDensity(
            2, lambda x: 0.0 if np.array_equal(x, np.zeros(2)) else -math.inf
        )
        spec = SimSpec(
            ndim=2, output_prefix="x", seed=1, parallelism="single_chain",
            num_workers=4, dr_stage_count=0,
        )
        state = init_state(spec, spike)
        state, winner, row = fork_join_cycle(state, spike, spec)
        assert winner is None and row is None
        assert state.pending_weight == 1 + 4  # one slot per worker verdict
        assert state.iteration == 5

    def test_lowest_accepting_rank_wins(self, mvn4):
        # Force worker 1 to reject and workers 2..4 to accept by making the
        # target accept anything except worker 1's specific first proposal.
        spec = SimSpec(
            ndim=4, output_prefix="x", seed=9, parallelism="single_chain",
            num_workers=4, dr_stage_count=0,
        )
        probe = init_state(spec, mvn4)
        from dramforge.proposal import propose

        first_candidate = propose(probe.proposal, probe.current, 0, SplitMix64(9, 1))

        def logf(x):
            if np.array_equal(x, first_candidate):
                return -math.inf
            return 0.0

        target = df.TargetDensity(4, logf)
        state = init_state(spec, target)
        state, winner, row = fork_join_cycle(state, target, spec)
        assert winner == 2
        assert state.live_process_id == 2
        # Start slot + rank-1 rejection + rank-2 acceptance.
        assert state.iteration == 3
        assert row is not None and state.rows.weight[row] == 2

    def test_same_streams_byte_identical_chains(self, mvn4, tmp_path):
        h = []
        for name in ("a", "b"):
            spec = SimSpec(
                ndim=4, output_prefix=str(tmp_path / name), chain_size=4000, seed=77,
                parallelism="single_chain", num_workers=4,
            )
            df.run_sampler(spec, mvn4)
            h.append(sha(tmp_path / f"{name}_chain.txt"))
        assert h[0] == h[1]

    def test_max_steps_truncates_cycle(self, mvn4):
        spec = SimSpec(
            ndim=4, output_prefix="x", seed=3, parallelism="single_chain",
            num_workers=8,
        )
        reject_all = df.TargetDensity(
            4, lambda x: 0.0 if np.array_equal(x, np.zeros(4)) else -math.inf
        )
        state = init_state(spec, reject_all)
        state, winner, _ = fork_join_cycle(state, reject_all, spec, max_steps=3)
        assert winner is None
        assert state.iteration == 4  # start slot + 3 consumed verdicts


    def test_unconsumed_ranks_streams_untouched(self, mvn4):
        # Rank 1 always accepts, so ranks 2..4 are never evaluated and keep
        # their initial streams, Box-Muller caches included.
        spec = SimSpec(
            ndim=4, output_prefix="x", seed=12, parallelism="single_chain",
            num_workers=4,
        )
        state = init_state(spec, mvn4)
        state.rngs[2].gauss()  # leave a cached deviate on rank 3
        before = [rng.getstate() for rng in state.rngs]
        accept_all = df.TargetDensity(4, lambda x: 0.0)
        state, winner, _ = fork_join_cycle(state, accept_all, spec)
        assert winner == 1
        assert state.rngs[0].getstate() != before[0]
        assert [rng.getstate() for rng in state.rngs[1:]] == before[1:]

    def test_ranks_past_budget_not_evaluated(self):
        calls = []

        def logf(x):
            calls.append(1)
            return 0.0 if np.array_equal(x, np.zeros(4)) else -math.inf

        target = df.TargetDensity(4, logf)
        spec = SimSpec(
            ndim=4, output_prefix="x", seed=3, parallelism="single_chain",
            num_workers=8, dr_stage_count=0,
        )
        state = init_state(spec, target)
        before = [rng.getstate() for rng in state.rngs]
        fork_join_cycle(state, target, spec, max_steps=3)
        assert len(calls) == 1 + 3  # start point + one call per consumed rank
        assert [rng.getstate() for rng in state.rngs[3:]] == before[3:]


def eager_cycle(state, target, spec, max_steps=None):
    """Reference fork-join cycle of an eager backend.

    Every rank runs a DR attempt against a copy of its stream; only the
    ranks whose verdicts the chain consumes commit their copies.
    """
    n = len(state.rngs)
    budget = n if max_steps is None else min(n, max_steps)
    attempts = []
    for rank, rng in enumerate(state.rngs, start=1):
        scratch = rng.copy()
        verdict = _attempt(state.current, state.current_logf, state.proposal, spec,
                           target, scratch, state.iteration + 1, state, rank)
        attempts.append((scratch, verdict))
    for rank, (scratch, verdict) in enumerate(attempts[:budget], start=1):
        state.rngs[rank - 1].setstate(scratch.getstate())
        state.iteration += 1
        row = _apply_verdict(state, verdict, process_id=rank)
        if verdict[0]:
            return state, rank, row
    return state, None, None


class TestLazyMatchesEager:
    """The lazy in-process cycle yields the chain an eager backend would."""

    class Interrupt(Exception):
        pass

    def _spec(self, tmp_path, name, **fields):
        kwargs = dict(ndim=4, chain_size=3000, seed=23, parallelism="single_chain",
                      num_workers=8)
        kwargs.update(fields)
        return SimSpec(output_prefix=str(tmp_path / name), **kwargs)

    @pytest.mark.parametrize(
        "dr_stage_count,num_workers", [(0, 8), (1, 8), (2, 8), (2, 1), (2, 3)]
    )
    def test_dr_stages_and_worker_counts(self, monkeypatch, tmp_path, mvn4,
                                         dr_stage_count, num_workers):
        fields = dict(dr_stage_count=dr_stage_count, num_workers=num_workers)
        lazy = df.run_sampler(self._spec(tmp_path, "lazy", **fields), mvn4)
        monkeypatch.setattr(sampler, "fork_join_cycle", eager_cycle)
        eager = df.run_sampler(self._spec(tmp_path, "eager", **fields), mvn4)
        assert sha(lazy.paths["chain"]) == sha(eager.paths["chain"])

    def test_cycles_cut_at_period_boundaries(self, monkeypatch, tmp_path, mvn4):
        # A prime period puts boundaries mid-cycle, so drive() passes
        # max_steps below the worker count; a narrow target makes most
        # ranks reject, so many cycles run into that budget.
        cuts = []

        def spy(state, target, spec, max_steps=None):
            if max_steps is not None and max_steps < spec.num_workers:
                cuts.append(max_steps)
            return fork_join_cycle(state, target, spec, max_steps)

        narrow = df.TargetDensity(4, lambda x: -50.0 * float(x @ x))
        monkeypatch.setattr(sampler, "fork_join_cycle", spy)
        lazy = df.run_sampler(self._spec(tmp_path, "lazy", adaptation_period=13), narrow)
        assert len(cuts) > 20
        monkeypatch.setattr(sampler, "fork_join_cycle", eager_cycle)
        eager = df.run_sampler(self._spec(tmp_path, "eager", adaptation_period=13), narrow)
        assert sha(lazy.paths["chain"]) == sha(eager.paths["chain"])

    def test_interrupted_and_resumed(self, monkeypatch, tmp_path, mvn4):
        lazy = df.run_sampler(self._spec(tmp_path, "lazy", dr_stage_count=2), mvn4)

        def hook(iteration):
            if iteration >= 1200:
                raise self.Interrupt

        monkeypatch.setattr(sampler, "fork_join_cycle", eager_cycle)
        spec = self._spec(tmp_path, "eager", dr_stage_count=2)
        with pytest.raises(self.Interrupt):
            df.run_sampler(spec, mvn4, on_checkpoint=hook)
        eager = df.resume(spec, mvn4)
        assert eager.chain.total_weight == spec.chain_size
        assert sha(lazy.paths["chain"]) == sha(eager.paths["chain"])


class TestWorkerMessages:
    def test_worker_attempt_reports_consumption(self, mvn4):
        spec = SimSpec(
            ndim=4, output_prefix="x", seed=4, parallelism="single_chain",
            num_workers=3, dr_stage_count=2,
        )
        reject_all = df.TargetDensity(
            4, lambda x: 0.0 if np.array_equal(x, np.zeros(4)) else -math.inf
        )
        state = init_state(spec, reject_all)
        before = state.rngs[1].getstate()
        accepted, _, _, _, stages_attempted = worker_attempt(state, reject_all, spec, rank=2)
        assert not accepted
        assert stages_attempted == 3
        # Consumption on stream 2 only: stages * (ndim gauss + 1 uniform).
        mirror = SplitMix64.from_state(before)
        for _ in range(stages_attempted):
            for _ in range(4):
                mirror.gauss()
            mirror.uniform()
        assert state.rngs[1].getstate() == mirror.getstate()
        assert state.rngs[0].getstate() == SplitMix64(4, 1).getstate()


class TestKsTwoSample:
    def test_identical_samples(self):
        a = np.linspace(-2, 2, 50)
        d, p = ks_two_sample(a, a.copy())
        assert d == 0.0 and p == 1.0

    def test_disjoint_supports(self):
        a = np.arange(0, 1, 0.1)
        d, p = ks_two_sample(a, a + 100.0)
        assert d == 1.0
        assert p < 1e-3

    def test_matches_scipy_statistic_and_pvalue(self):
        # D against scipy's two-sample machinery; p against the plain
        # asymptotic Kolmogorov distribution at the effective size (scipy's
        # 'asymp' ks_2samp adds a small-sample correction on top of it).
        rng = np.random.default_rng(0)
        for _ in range(20):
            a = rng.normal(0, 1, int(rng.integers(30, 300)))
            b = rng.normal(0.2, 1.3, int(rng.integers(30, 300)))
            d, p = ks_two_sample(a, b)
            ref = st.ks_2samp(a, b, mode="asymp")
            assert d == pytest.approx(ref.statistic, abs=1e-12)
            m_eff = a.size * b.size / (a.size + b.size)
            assert p == pytest.approx(st.kstwobign.sf(math.sqrt(m_eff) * d),
                                      rel=1e-9, abs=1e-12)

    def test_pvalue_calibration_under_null(self):
        rng = np.random.default_rng(7)
        rejections = 0
        trials = 200
        for _ in range(trials):
            a = rng.normal(0, 1, 500)
            b = rng.normal(0, 1, 500)
            _, p = ks_two_sample(a, b)
            rejections += p < 0.05
        assert 0.01 <= rejections / trials <= 0.10

    def test_minimum_sample_size(self):
        with pytest.raises(UsageError):
            ks_two_sample([1.0, 2.0], [1.0, 2.0, 3.0, 4.0, 5.0])

    def test_kolmogorov_sf_reference_values(self):
        # scipy.special.kolmogorov oracle values, frozen:
        #   kolmogorov(0.5) = 0.9639452436648751
        #   kolmogorov(1.0) = 0.2699996716773238
        #   kolmogorov(2.0) = 0.00067092525577969533
        assert kolmogorov_sf(0.5) == pytest.approx(0.9639452436648751, rel=1e-12)
        assert kolmogorov_sf(1.0) == pytest.approx(0.2699996716773238, rel=1e-12)
        assert kolmogorov_sf(2.0) == pytest.approx(0.00067092525577969533, rel=1e-12)
        assert kolmogorov_sf(0.0) == 1.0


class TestGeometricFit:
    def test_all_first_rank(self):
        stats = fit_geometric(np.array([120, 0, 0]))
        assert stats.fitted_p == 1.0
        assert stats.fit_distance == 0.0

    def test_recovers_parameter_from_synthetic_draws(self):
        rng = SplitMix64(33)
        p_true = 0.3
        counts = np.zeros(64, dtype=int)
        for _ in range(100_000):
            k = 1
            while rng.uniform() >= p_true and k < 64:
                k += 1
            counts[k - 1] += 1
        stats = fit_geometric(counts)
        assert abs(stats.fitted_p - p_true) < 0.01
        assert stats.fit_distance < 0.01

    def test_contribution_stats_histogram(self):
        pids = [1, 1, 2, 1, 3, 1, 2]
        stats = contribution_stats(pids, 4)
        assert stats.counts.tolist() == [4, 2, 1, 0]

    def test_empty_counts_rejected(self):
        with pytest.raises(UsageError):
            fit_geometric(np.zeros(4))


class TestSpeedupModel:
    def test_mu_one_never_speeds_up(self):
        assert all(predict_speedup(1.0, n) == 1.0 for n in (1, 2, 8, 100))

    def test_half_mu_two_workers(self):
        assert predict_speedup(0.5, 2) == 1.5

    def test_s1_is_exactly_one(self):
        for mu in (0.01, 0.3, 0.5, 0.77, 0.999):
            assert predict_speedup(mu, 1) == 1.0

    def test_monotone_and_bounded(self):
        mu = 0.23
        values = [predict_speedup(mu, n) for n in range(1, 60)]
        assert all(b >= a for a, b in zip(values, values[1:]))
        assert values[-1] <= 1.0 / mu + 1e-12

    def test_optimal_workers_closed_form(self):
        assert optimal_num_workers(0.5) == 7
        assert optimal_num_workers(0.23) == 18
        assert optimal_num_workers(1.0) == 1

    def test_optimal_workers_achieves_99_percent(self):
        for mu in (0.05, 0.23, 0.4, 0.9):
            n = optimal_num_workers(mu)
            assert 1.0 - (1.0 - mu) ** n >= 0.99
            if n > 1:
                assert 1.0 - (1.0 - mu) ** (n - 1) < 0.99

    def test_small_mu_asymptotic(self):
        mu = 1e-3
        n = optimal_num_workers(mu)
        assert n == pytest.approx(math.log(100) / mu, rel=0.01)


class TestMultiChain:
    def test_same_target_chains_not_flagged(self, prefix):
        target = df.TargetDensity(1, lambda x: -0.5 * float(x[0] * x[0]))
        spec = SimSpec(
            ndim=1, output_prefix=prefix(), chain_size=15_000, seed=40,
            parallelism="multi_chain", num_workers=2,
        )
        outputs, report = run_multi_chain(spec, target, 2)
        assert len(outputs) == 2
        assert all(out.report.ess >= 500 for out in outputs)
        assert not report.flagged

    def test_mismatched_targets_flagged(self):
        rng = np.random.default_rng(3)
        a = rng.normal(0, 1, (800, 1))
        b = rng.normal(3, 1, (800, 1))
        report = compare_refined_samples([a, b])
        assert report.flagged

    def test_pairs_with_too_few_points_are_not_tested(self):
        rng = np.random.default_rng(4)
        a, b = rng.normal(0, 1, (40, 2)), rng.normal(0, 1, (40, 2))
        short = rng.normal(0, 1, (KS_MIN_POINTS - 1, 2))
        report = compare_refined_samples([a, b, short])
        pairs = [(t.chain_a, t.chain_b, t.dimension) for t in report.tests]
        assert pairs == [(1, 2, 1), (1, 2, 2)] and report.n_tests == 2
        report = compare_refined_samples([short, short[::-1]])
        assert report.tests == [] and report.n_tests == 0
        assert not report.flagged and report.min_p == 1.0

    def test_needs_at_least_two_chains(self, mvn4, prefix):
        spec = SimSpec(ndim=4, output_prefix=prefix(), chain_size=100, seed=1)
        with pytest.raises(UsageError):
            run_multi_chain(spec, mvn4, 1)

    def test_convergence_file_written(self, mvn4, tmp_path):
        spec = SimSpec(
            ndim=4, output_prefix=str(tmp_path / "mc"), chain_size=3000, seed=42,
            parallelism="multi_chain", num_workers=2,
        )
        _, report = run_multi_chain(spec, mvn4, 2)
        text = open(tmp_path / "mc_convergence.txt").read()
        assert f"n_tests = {report.n_tests}" in text
        assert "flagged = False" in text

    def test_interrupted_run_resumes_to_uninterrupted_bytes(self, mvn4, tmp_path, monkeypatch):
        # Chain 1 finished and chain 2 was cut at its fifth checkpoint: the
        # next call reads chain 1 back, resumes chain 2 and runs chain 3.
        spec = SimSpec(ndim=4, output_prefix="mc", chain_size=3000, seed=43,
                       parallelism="multi_chain", num_workers=3)
        subs = chain_specs(spec, 3)
        files = ["mc_convergence.txt"] + [
            path for sub in subs
            for name, path in df.output_paths(sub.output_prefix, "ascii").items()
            if name != "progress"
        ]
        assert len(files) == 13
        (tmp_path / "ref").mkdir()
        monkeypatch.chdir(tmp_path / "ref")
        run_multi_chain(spec, mvn4, 3)
        want = {path: sha(path) for path in files}

        (tmp_path / "twin").mkdir()
        monkeypatch.chdir(tmp_path / "twin")

        class Interrupt(Exception):
            pass

        append = RestartWriter.append

        def stop_in_chain_2(writer, ck):
            if writer.path.startswith("mc_c2") and ck.checkpoint_index == 5:
                raise Interrupt
            append(writer, ck)

        with monkeypatch.context() as patch:
            patch.setattr(RestartWriter, "append", stop_in_chain_2)
            with pytest.raises(Interrupt):
                run_multi_chain(spec, mvn4, 3)
        assert [df.inspect_outputs(sub) for sub in subs] == ["complete", "incomplete", "absent"]
        assert df.inspect_outputs(spec) == "incomplete"

        outputs, _ = run_multi_chain(spec, mvn4, 3)
        assert {path: sha(path) for path in files} == want
        assert [out.chain.total_weight for out in outputs] == [3000] * 3
        assert df.inspect_outputs(spec) == "complete"
        with pytest.raises(RunAlreadyComplete):
            run_multi_chain(spec, mvn4, 3)
