"""Tests of the benchmark itself: ESS estimator, moment checks, tracer, host speed.

Run from the repository root with ``python3 -m pytest bench``.
"""

import json
import os
import sys

import numpy as np
import pytest

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import ess  # noqa: E402
import hostspeed  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from dramforge import core, proposal, sampler  # noqa: E402


def ar1(phi: float, n: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    noise = rng.standard_normal(n)
    x = np.empty(n)
    x[0] = noise[0] / np.sqrt(1.0 - phi * phi)
    for i in range(1, n):
        x[i] = phi * x[i - 1] + noise[i]
    return x


@pytest.mark.parametrize("phi", [-0.5, 0.0, 0.5, 0.9])
def test_iact_matches_ar1(phi):
    tau = (1.0 + phi) / (1.0 - phi)
    estimates = [ess.iact(ar1(phi, 100_000, seed)) for seed in range(4)]
    assert np.mean(estimates) == pytest.approx(tau, rel=0.05)


def test_ess_takes_the_worst_coordinate_after_burnin():
    n = 50_000
    states = np.column_stack([ar1(0.0, n, 1), ar1(0.8, n, 2)])
    kept = n - int(ess.BURNIN_SHARE * n)
    assert ess.ess(states, np.ones(n, dtype=int)) == pytest.approx(kept / 9.0, rel=0.15)


def test_ess_reads_weights_as_repeats():
    rng = np.random.default_rng(3)
    states = rng.standard_normal((2_000, 2))
    weights = rng.integers(1, 4, size=2_000)
    expanded = np.repeat(states, weights, axis=0)
    assert ess.ess(states, weights) == ess.ess(expanded, np.ones(expanded.shape[0], int))


def test_moment_check_passes_truth_and_catches_a_shift():
    rng = np.random.default_rng(5)
    good = ess.MomentCheck(np.zeros(3), np.ones(3))
    shifted = ess.MomentCheck(np.zeros(3), np.ones(3))
    for _ in range(3):
        x = rng.standard_normal((20_000, 3))
        good.add(x, np.ones(20_000, dtype=int))
        shifted.add(x + np.array([0.0, 0.1, 0.0]), np.ones(20_000, dtype=int))
    assert good.failures()[:2] == (6, 0)
    attempted, failed, bad = shifted.failures()
    assert (attempted, failed) == (6, 1) and "mean of coordinate 2" in bad[0]


def test_sub_seed_keeps_the_given_seed_first():
    assert workloads.sub_seed(11, 0) == 11
    seeds = {workloads.sub_seed(11, k) for k in range(1, 50)}
    assert len(seeds) == 49 and all(0 < s < 2**63 for s in seeds)


def test_mixture_moments_do_not_depend_on_the_seed():
    for seed in (0, 11):
        means = workloads._mixture_means(seed)
        assert np.allclose(means.mean(axis=0), 0.0, atol=1e-12)
        assert np.allclose(means.T @ means / means.shape[0],
                           workloads.MIXTURE_SPREAD**2 * np.eye(4), atol=1e-12)


def test_patches_wrap_every_lookup_and_restore_the_originals():
    tracer = tracing.Tracer()
    patches = tracing.Patches(tracer)
    original = (sampler.propose, proposal.propose, core.SplitMix64.uniform)
    patches.install()
    try:
        assert sampler.propose is proposal.propose is not original[0]
        rng = core.SplitMix64(7)
        tracer.call("bench.test", rng.gauss, (), {}, True)
    finally:
        patches.restore()
    assert (sampler.propose, proposal.propose, core.SplitMix64.uniform) == original
    # gauss draws two uniforms through the patched class attribute.
    assert tracer.calls("core.rng.gauss") == 1
    assert tracer.agg[("core.rng.uniform", "core.rng.gauss")][0] == 2


def test_traced_sample_is_attributed_to_the_program(tmp_path):
    wl = workloads.SerialMvn4(os.path.relpath(tmp_path, ROOT))
    wl.sample_size = 2_000
    cwd = os.getcwd()
    os.chdir(ROOT)
    try:
        wl.cases.append(wl.prepare(0, 11))
        tracer, tally = tracing.Tracer(), workloads.Tally()
        checks = workloads.Checks(print)
        wl.sample(run.TraceClock(tracer), 0, 11, checks, tally,
                  ess.MomentCheck(*wl.truth()))
    finally:
        os.chdir(cwd)
    assert checks.failed == 0
    assert [out.report.spec.chain_size for out in tracer.outputs] == [2_000]
    assert tracer.calls("sampler.run_sampler") == 1
    assert tracing.unattributed_share(tracer) < tracing.UNATTRIBUTED_SLACK


def test_unwrapped_work_counts_as_unattributed():
    tracer = tracing.Tracer()
    tracer.call("bench.test", sum, (range(100_000),), {}, True)
    assert tracing.unattributed_share(tracer) == 1.0


def test_host_speed_scales_by_the_kernel_time_around_an_operation():
    host = hostspeed.HostSpeed()
    before = host.last
    scaled = host.scale(2.0)
    assert scaled == pytest.approx(
        2.0 * hostspeed.REFERENCE_S / (0.5 * (before + host.last)))
    assert host.factors == [scaled / 2.0]


def test_self_time_excludes_children():
    tracer = tracing.Tracer()

    def child():
        return sum(range(10_000))

    def parent():
        return tracer.call("inner", child, (), {}, False)

    tracer.call("outer", parent, (), {}, True)
    outer = tracer.agg[("outer", "")]
    inner = tracer.agg[("inner", "outer")]
    assert outer[2] == pytest.approx(outer[1] - inner[1])
    assert tracer.spans[0][:2] == ("outer", "")


def test_benchmark_json_lists_what_the_benchmark_reports():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        tuple(m) for m in tracing.PER_LAYER
    ]


def test_layer_metrics_cover_the_per_layer_table():
    extra = dict.fromkeys(("speedup_measured", "speedup_predicted", "fitted_p",
                           "fit_distance", "overhead_s", "overhead_share"), 0.0)
    metrics = tracing.layer_metrics(tracing.Tracer(), 0.0, [], extra)
    assert list(metrics) == [name for name, _, _ in tracing.PER_LAYER]
