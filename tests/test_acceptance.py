"""Acceptance criteria, one test per criterion, each printing a verdict line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the PASS lines
and the measured values next to their budgets.
"""

import math
import os
import time

import numpy as np
import pytest
import scipy.stats as st
from scipy.integrate import dblquad

import dramforge as df
from dramforge import SimSpec
from dramforge.chainio import write_chain
from dramforge.core import SplitMix64
from dramforge.parallel import compare_refined_samples, optimal_num_workers, predict_speedup
from dramforge.proposal import adaptation_measure
from dramforge.refinement import autocorrelation, refine
from dramforge.sampler import _emit_live, init_state, step

from conftest import random_chain
from test_proposal import gaussian_tv_grid_2d, gaussian_tv_quadrature_1d, state_with


def report(criterion, text):
    print(f"ACCEPTANCE {criterion}: PASS - {text}")


@pytest.fixture(scope="session")
def mvn4_target():
    return df.TargetDensity(4, lambda x: -0.5 * float(x @ x))


@pytest.fixture(scope="session")
def run1(tmp_path_factory, mvn4_target):
    """Criterion 1's run: 4-D standard MVN, 50k iterations, default spec."""
    prefix = str(tmp_path_factory.mktemp("run1") / "mvn4")
    spec = SimSpec(ndim=4, output_prefix=prefix, chain_size=50_000, seed=11)
    t0 = time.perf_counter()
    out = df.run_sampler(spec, mvn4_target)
    elapsed = time.perf_counter() - t0
    return spec, out, elapsed


def test_criterion_01_correct_sampling(run1):
    spec, out, elapsed = run1
    ess = out.report.ess
    refined = out.refined.states
    mean_tol = 4.0 / math.sqrt(ess)
    worst_mean = float(np.abs(refined.mean(axis=0)).max())
    assert worst_mean < mean_tol
    diag = refined.var(axis=0, ddof=1)
    assert np.all(np.abs(diag - 1.0) < 0.10)
    ks_p = [st.kstest(refined[:, dim], "norm").pvalue for dim in range(4)]
    assert min(ks_p) > 0.01
    assert elapsed < 10.0
    report(1, f"|mean|<= {worst_mean:.4f} (tol {mean_tol:.4f}), "
              f"var diag {np.round(diag, 3)}, min KS p {min(ks_p):.3f}, "
              f"runtime {elapsed:.2f}s < 10s")


def test_criterion_02_diminishing_adaptation(run1):
    spec, out, _ = run1
    _, records = df.read_restart(out.paths["restart"])
    measures = np.array([ck.measure for ck in records[1:]])
    assert measures.size >= 20
    assert np.all((measures >= 0.0) & (measures <= 1.0))
    k = max(1, measures.size // 10)
    early, late = measures[:k].mean(), measures[-k:].mean()
    assert late < 0.5 * early
    report(2, f"{measures.size} adaptation measures in [0,1], "
              f"late mean {late:.5f} < 0.5 x early mean {early:.5f}")


def test_criterion_03_tv_upper_bound():
    rng = np.random.default_rng(303)
    checked = 0
    for _ in range(100):  # 1-D pairs
        m1, m2 = rng.uniform(-2.0, 2.0, 2)
        s1, s2 = rng.uniform(0.4, 2.5, 2)
        a = state_with([m1], [[s1**2]], eps=1e-300)
        b = state_with([m2], [[s2**2]], eps=1e-300)
        tv = gaussian_tv_quadrature_1d(m1, s1, m2, s2)
        assert adaptation_measure(a, b) >= tv - 1e-9
        checked += 1
    for _ in range(100):  # 2-D pairs
        m1 = rng.uniform(-1.5, 1.5, 2)
        m2 = rng.uniform(-1.5, 1.5, 2)
        c1 = _random_spd_2d(rng)
        c2 = _random_spd_2d(rng)
        a = state_with(m1, c1, eps=1e-300)
        b = state_with(m2, c2, eps=1e-300)
        tv = gaussian_tv_grid_2d(m1, c1, m2, c2)
        assert adaptation_measure(a, b) >= tv - 1e-6
        checked += 1
    identical = state_with([0.3, -0.7], [[1.2, 0.1], [0.1, 0.8]], eps=1e-300)
    twin = state_with([0.3, -0.7], [[1.2, 0.1], [0.1, 0.8]], eps=1e-300)
    assert adaptation_measure(identical, twin) <= 1e-12
    report(3, f"measure >= quadrature TV on {checked} random Gaussian pairs, "
              "0 within 1e-12 for identical pairs")


def _random_spd_2d(rng):
    m = rng.normal(0.0, 1.0, (2, 2))
    return m @ m.T + 0.4 * np.eye(2)


def test_criterion_04_compact_storage(tmp_path, mvn4_target):
    prefix = str(tmp_path / "lowacc")
    spec = SimSpec(
        ndim=4, output_prefix=prefix, chain_size=20_000, seed=14,
        dr_stage_count=0, adaptation_period=10**9, proposal_scale=4.0,
    )
    t0 = time.perf_counter()
    out = df.run_sampler(spec, mvn4_target)
    elapsed = time.perf_counter() - t0
    assert out.report.mean_accept_rate <= 0.25
    verbose_path = str(tmp_path / "verbose_chain.txt")
    write_chain(out.chain, verbose_path, "verbose", "ascii")
    ratio = os.path.getsize(verbose_path) / os.path.getsize(out.paths["chain"])
    assert ratio >= 4.0
    assert elapsed < 10.0
    report(4, f"acceptance {out.report.mean_accept_rate:.3f} <= 0.25, "
              f"verbose/compact byte ratio {ratio:.1f} >= 4, runtime {elapsed:.2f}s")


def test_criterion_05_refinement_of_ar1_chain():
    t0 = time.perf_counter()
    rng = np.random.default_rng(505)
    n = 100_000
    noise = rng.normal(0.0, 1.0, n)
    series = np.empty(n)
    series[0] = noise[0] / math.sqrt(1 - 0.9**2)
    for i in range(1, n):
        series[i] = 0.9 * series[i - 1] + noise[i]
    chain = df.CompactChain(
        1, np.ones(n), np.zeros(n), np.full(n, 0.5), np.zeros(n),
        np.zeros(n), np.ones(n, dtype=int), np.zeros(n), series.reshape(-1, 1),
    )
    refined = refine(chain, 0)
    hist = refined.iac_history
    assert all(b < a for a, b in zip(hist, hist[1:]))
    n_final = len(refined)
    rho = autocorrelation(refined.states[:, 0], 10)
    band = 3.0 / math.sqrt(n_final)
    assert np.all(np.abs(rho[1:]) < band)
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    report(5, f"iac history {np.round(hist, 2)} strictly decreasing, "
              f"refined lag-1..10 |acf| < {band:.4f} at n={n_final}, "
              f"runtime {elapsed:.2f}s")


def test_criterion_06_deterministic_restart(run1, tmp_path, mvn4_target):
    spec1, out1, elapsed1 = run1

    class SimulatedInterrupt(Exception):
        pass

    t0 = time.perf_counter()
    twin = spec1.with_updates(output_prefix=str(tmp_path / "twin"))

    def interrupt(iteration):
        if iteration >= spec1.chain_size // 3:
            raise SimulatedInterrupt

    with pytest.raises(SimulatedInterrupt):
        df.run_sampler(twin, mvn4_target, on_checkpoint=interrupt)
    resumed = df.resume(twin, mvn4_target)
    elapsed = time.perf_counter() - t0
    with open(out1.paths["chain"], "rb") as fh:
        reference = fh.read()
    with open(resumed.paths["chain"], "rb") as fh:
        restarted = fh.read()
    assert restarted == reference
    assert elapsed1 + elapsed < 20.0
    report(6, f"chain file byte-identical after interrupt at iteration "
              f">= {spec1.chain_size // 3} and resume "
              f"({len(reference)} bytes), total runtime {elapsed1 + elapsed:.2f}s")


def test_criterion_07_fork_join_validity_and_geometry(tmp_path, mvn4_target):
    prefix = str(tmp_path / "fj8")
    spec = SimSpec(
        ndim=4, output_prefix=prefix, chain_size=30_000, seed=7,
        parallelism="single_chain", num_workers=8,
    )
    t0 = time.perf_counter()
    out = df.run_sampler(spec, mvn4_target)
    elapsed = time.perf_counter() - t0
    assert out.report.accepted_count >= 10_000
    ks_p = [st.kstest(out.refined.states[:, dim], "norm").pvalue for dim in range(4)]
    assert min(ks_p) > 0.01
    par = out.report.parallel
    assert par.fit_distance < 0.05
    assert abs(par.fitted_p - par.mu) < 0.02
    assert elapsed < 60.0
    report(7, f"{out.report.accepted_count} accepted steps over 8 workers, "
              f"min KS p {min(ks_p):.3f}, geometric TV {par.fit_distance:.4f} < 0.05, "
              f"|p_hat - mu| = {abs(par.fitted_p - par.mu):.4f} < 0.02, "
              f"runtime {elapsed:.1f}s")


def test_criterion_08_speedup_model():
    t0 = time.perf_counter()
    mu = 0.25
    rng = SplitMix64(808)

    def cycles_efficiency(n, cycles=120_000):
        accepted = 0
        for _ in range(cycles):
            for _rank in range(n):
                if rng.uniform() < mu:
                    accepted += 1
                    break
        return accepted / cycles

    serial = cycles_efficiency(1)
    for n in (2, 4, 8):
        measured = cycles_efficiency(n) / serial
        predicted = predict_speedup(mu, n)
        assert abs(measured - predicted) / predicted < 0.10
    assert optimal_num_workers(0.23) == 18
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    report(8, f"DES accepted-steps-per-cycle ratios within 10% of S(n) for "
              f"n in (2,4,8); optimal_num_workers(0.23) = 18; runtime {elapsed:.2f}s")


def test_criterion_09_multi_chain_convergence(tmp_path):
    t0 = time.perf_counter()
    std_normal = df.TargetDensity(1, lambda x: -0.5 * float(x[0] * x[0]))
    spec = SimSpec(
        ndim=1, output_prefix=str(tmp_path / "mc"), chain_size=15_000, seed=40,
        parallelism="multi_chain", num_workers=2,
    )
    outputs, verdict = df.run_multi_chain(spec, std_normal, 2)
    assert all(out.report.ess >= 500 for out in outputs)
    assert not verdict.flagged

    shifted = df.TargetDensity(1, lambda x: -0.5 * float((x[0] - 3.0) ** 2))
    spec_b = SimSpec(
        ndim=1, output_prefix=str(tmp_path / "other"), chain_size=15_000, seed=43,
        start_point=[3.0],
    )
    out_b = df.run_sampler(spec_b, shifted)
    mismatch = compare_refined_samples(
        [outputs[0].refined.states, out_b.refined.states]
    )
    assert mismatch.flagged
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    report(9, f"same-target chains not flagged (min p {verdict.min_p:.3f}); "
              f"N(0,1) vs N(3,1) fixture flagged; runtime {elapsed:.2f}s")


def test_criterion_10_plain_metropolis_degeneration():
    # In-memory chain: this criterion tests the transition law and the
    # acceptance rate, not file IO (criteria 4, 6, and 11 cover files).
    t0 = time.perf_counter()
    target = df.TargetDensity(1, lambda x: -0.5 * float(x[0] * x[0]))
    spec = SimSpec(
        ndim=1, output_prefix="unused", chain_size=1_000_000, seed=21,
        dr_stage_count=0, adaptation_period=10**9,
    )
    state = init_state(spec, target)
    while state.iteration < spec.chain_size:
        step(state, target, spec)
    _emit_live(state)
    chain = state.rows
    refined = refine(chain, 0)
    p = st.kstest(refined.states[:, 0], "norm").pvalue
    assert p > 0.01

    # Analytic acceptance for a fixed N(0, s^2) random-walk proposal on
    # N(0, 1), by 2-D quadrature (independent of the sampler).
    s = math.sqrt(spec.proposal_scale**2 + spec.cov_epsilon)
    phi = lambda v: math.exp(-0.5 * v * v) / math.sqrt(2.0 * math.pi)
    analytic, quad_err = dblquad(
        lambda z, x: phi(x) * phi(z) * min(1.0, math.exp(-0.5 * ((x + s * z) ** 2 - x * x))),
        -10, 10, -10, 10, epsabs=1e-10, epsrel=1e-10,
    )
    measured = state.accepted_count / spec.chain_size
    assert abs(measured - analytic) / analytic < 0.01
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    report(10, f"KS p {p:.3f} on refined 1e6 chain; acceptance {measured:.5f} vs "
               f"analytic {analytic:.5f} ({abs(measured - analytic) / analytic:.3%} off); "
               f"runtime {elapsed:.2f}s")


def test_criterion_11_file_round_trips(tmp_path):
    rng = np.random.default_rng(1111)
    for trial in range(100):
        ndim = int(rng.integers(1, 6))
        chain = random_chain(rng, ndim, int(rng.integers(1, 30)))
        encoding = "ascii" if trial % 2 == 0 else "binary"
        path = str(tmp_path / f"c{trial}.{encoding}")
        write_chain(chain, path, "compact", encoding)
        assert df.read_chain(path) == chain
        other = str(tmp_path / f"v{trial}.{encoding}")
        write_chain(chain, other, "verbose", encoding)
        assert df.read_chain(other) == chain

    # Truncated fixtures recover every complete row.
    chain = random_chain(rng, 3, 12)
    ascii_path = str(tmp_path / "trunc.txt")
    write_chain(chain, ascii_path, "compact", "ascii")
    blob = open(ascii_path, "rb").read()
    open(ascii_path, "wb").write(blob[: int(len(blob) * 0.7)])
    back = df.read_chain(ascii_path)
    assert back.truncated and back.n_rows >= 1
    assert back == chain.sliced(back.n_rows)

    bin_path = str(tmp_path / "trunc.bin")
    write_chain(chain, bin_path, "compact", "binary")
    blob = open(bin_path, "rb").read()
    open(bin_path, "wb").write(blob[:-7])
    back = df.read_chain(bin_path)
    assert back.truncated and back.n_rows == 11
    assert back == chain.sliced(11)
    report(11, "100 randomized chains round-trip bitwise in both encodings "
               "and both formats; truncated fixtures recover all complete rows")
