import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import dramforge as df
from dramforge.refinement import (
    MIN_REFINE_SIZE,
    STOP_TAU,
    autocorrelation,
    integrated_autocorrelation,
    refine,
    weighted_acf,
)


def brute_force_acf(series, max_lag):
    """Direct lag sums on the expanded series: the oracle convention."""
    x = np.asarray(series, dtype=float)
    n = x.size
    dev = x - x.mean()
    c0 = float(dev @ dev) / n
    rho = np.zeros(max_lag + 1)
    rho[0] = 1.0
    if c0 == 0:
        return rho
    for k in range(1, max_lag + 1):
        rho[k] = float(dev[:-k] @ dev[k:]) / (n - k) / c0
    return rho


def reference_refine(chain, burnin):
    """Refinement on the materialized verbose chain: the oracle for refine.

    Expands the post-burn-in rows with np.repeat, takes tau as the max of
    the FFT autocorrelation's tau over every coordinate and logf, and thins
    the expansion with a stride slice. Returns (states, logf, iac_history).
    """
    weights = chain.weight[burnin:]
    states = np.repeat(chain.states[burnin:], weights, axis=0)
    logf = np.repeat(chain.logf[burnin:], weights)
    history = []
    if states.shape[0] < 2:
        return states, logf, history
    while True:
        n = states.shape[0]
        tau = max(
            integrated_autocorrelation(autocorrelation(series, n - 1))
            for series in [*states.T, logf]
        )
        if history and tau >= history[-1]:
            break
        history.append(tau)
        if tau <= STOP_TAU:
            break
        stride = math.ceil(tau)
        states = states[::stride]
        logf = logf[::stride]
        if states.shape[0] < MIN_REFINE_SIZE:
            break
    return states, logf, history


def make_chain(values, weights):
    """1-D compact chain whose logf column is constant (inert for tau)."""
    values = np.asarray(values, dtype=float)
    n = values.size
    return df.CompactChain(
        1,
        np.ones(n), np.zeros(n), np.full(n, 0.5), np.zeros(n),
        np.zeros(n), np.asarray(weights), np.zeros(n), values.reshape(-1, 1),
    )


def ar1_series(phi, n, seed=0):
    rng = np.random.default_rng(seed)
    noise = rng.normal(0, 1, n)
    out = np.empty(n)
    out[0] = noise[0] / math.sqrt(1 - phi * phi)
    for i in range(1, n):
        out[i] = phi * out[i - 1] + noise[i]
    return out


class TestWeightedAcf:
    def test_constant_series_zero_branch(self):
        rho = weighted_acf([1.0, 1.0, 1.0], [1, 1, 1], 2)
        assert rho[0] == 1.0
        assert rho[1] == 0.0 and rho[2] == 0.0

    def test_matches_brute_force_expansion(self):
        values, weights = [3.0, -1.0], [2, 3]
        expanded = np.repeat(values, weights)
        got = weighted_acf(values, weights, 4)
        expect = brute_force_acf(expanded, 4)
        assert np.allclose(got, expect, atol=1e-12)

    def test_iid_noise_stays_in_white_band(self):
        rng = np.random.default_rng(8)
        series = rng.normal(0, 1, 10_000)
        rho = weighted_acf(series, np.ones(series.size, dtype=int), 10)
        assert np.all(np.abs(rho[1:]) < 3.0 / math.sqrt(series.size))

    def test_matches_fft_path(self):
        rng = np.random.default_rng(4)
        series = rng.normal(0, 1, 500)
        assert np.allclose(
            weighted_acf(series, np.ones(500, dtype=int), 40),
            autocorrelation(series, 40),
            atol=1e-10,
        )

    @settings(max_examples=60, deadline=None)
    @given(
        data=st.lists(
            st.tuples(
                st.floats(min_value=-50, max_value=50, allow_nan=False),
                st.integers(min_value=1, max_value=6),
            ),
            min_size=2,
            max_size=30,
        )
    )
    def test_weighted_equals_brute_force_on_random_chains(self, data):
        values = [v for v, _ in data]
        weights = [w for _, w in data]
        expanded = np.repeat(values, weights)
        # A numerically constant series hits the zero-variance branch in
        # one path and pure roundoff in the other; the comparison is only
        # meaningful with real variance present.
        assume(np.ptp(expanded) > 1e-6 * (1.0 + np.abs(expanded).max()))
        max_lag = min(expanded.size - 1, 12)
        got = weighted_acf(values, weights, max_lag)
        expect = brute_force_acf(expanded, max_lag)
        assert np.allclose(got, expect, atol=1e-10)

    def test_bad_arguments(self):
        with pytest.raises(ValueError):
            weighted_acf([1.0], [1], 0)  # expands to < 2 elements
        with pytest.raises(ValueError):
            weighted_acf([1.0, 2.0], [1, 1], 5)  # max_lag >= total
        with pytest.raises(ValueError):
            weighted_acf([1.0, 2.0], [0, 1], 1)


def test_autocorrelation_bits_do_not_depend_on_blas_threads():
    # At these lengths OpenBLAS splits a dot product over its threads, and
    # the thread count then sets the summation order; the FFT's does not.
    # On a one-core host OpenBLAS runs one thread either way.
    code = (
        "import hashlib\n"
        "import numpy as np\n"
        "from dramforge.refinement import autocorrelation\n"
        "for n in (20_000, 50_000):\n"
        "    x = np.cumsum(np.random.default_rng(3).normal(size=n))\n"
        "    print(hashlib.sha256(autocorrelation(x, n - 1).tobytes()).hexdigest())\n"
    )
    # The children import dramforge from this checkout's src, as this process does.
    src = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
    pythonpath = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    outs = [
        subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                       env=dict(os.environ, PYTHONPATH=pythonpath, OPENBLAS_NUM_THREADS=threads))
        .stdout
        for threads in ("1", "2")
    ]
    assert outs[0] == outs[1] and len(outs[0].split()) == 2


class TestIntegratedAutocorrelation:
    def test_white_noise(self):
        assert integrated_autocorrelation(np.array([1.0, 0.0, 0.0])) == 1.0

    def test_analytic_ar1_half(self):
        ks = np.arange(0, 60)
        acf = 0.5**ks
        tau = integrated_autocorrelation(acf)
        assert tau == pytest.approx(3.0, abs=1e-9)

    def test_immediate_truncation_on_negative_lag1(self):
        assert integrated_autocorrelation(np.array([1.0, -0.4, 0.8])) == 1.0

    def test_requires_normalized_acf(self):
        with pytest.raises(ValueError):
            integrated_autocorrelation(np.array([0.9, 0.1]))


class TestRefine:
    def test_uncorrelated_chain_single_pass(self):
        rng = np.random.default_rng(2)
        values = rng.normal(0, 1, 5000)
        chain = make_chain(values, np.ones(5000, dtype=int))
        refined = refine(chain, 0)
        assert len(refined.iac_history) == 1
        assert refined.iac_history[0] <= 1.05
        assert np.array_equal(refined.states[:, 0], values)

    def test_hand_built_dwell_chain_thins_to_unique_states(self):
        chain = make_chain([4.0, -4.0], [4, 4])
        refined = refine(chain, 0)
        # tau = 1 + 2*(5/7 + 1/3) ~ 3.095 -> stride 4 keeps indices 0 and 4
        assert refined.iac_history[0] == pytest.approx(1 + 2 * (5 / 7 + 1 / 3), abs=1e-12)
        assert np.array_equal(refined.states[:, 0], [4.0, -4.0])

    def test_burnin_rows_dropped(self):
        chain = make_chain([100.0, 1.0, 2.0, 1.5, 0.5, 1.0, 2.5, 0.0, 1.0, 2.0, 1.1, 0.9],
                           np.ones(12, dtype=int))
        refined = refine(chain, 2)
        assert refined.source_burnin == 2
        assert refined.states.shape[0] <= 10
        assert 100.0 not in refined.states

    def test_single_point_chain(self):
        chain = make_chain([1.0], [1])
        refined = refine(chain, 0)
        assert refined.states.shape == (1, 1)
        assert refined.iac_history == []

    def test_ar1_09_fully_decorrelates(self):
        series = ar1_series(0.9, 100_000, seed=13)
        chain = make_chain(series, np.ones(series.size, dtype=int))
        refined = refine(chain, 0)
        hist = refined.iac_history
        assert all(b < a for a, b in zip(hist, hist[1:]))  # strictly decreasing
        n_final = refined.states.shape[0]
        rho = autocorrelation(refined.states[:, 0], 10)
        assert np.all(np.abs(rho[1:]) < 3.0 / math.sqrt(n_final))

    def test_idempotent_on_refined_output(self):
        series = ar1_series(0.8, 20_000, seed=3)
        chain = make_chain(series, np.ones(series.size, dtype=int))
        first = refine(chain, 0)
        again = refine(make_chain(first.states[:, 0], np.ones(len(first), dtype=int)), 0)
        assert len(again.iac_history) == 1
        assert np.array_equal(again.states, first.states)

    def test_logf_series_participates_in_tau(self):
        # Coordinates are white but logf is strongly sticky: tau must see it.
        rng = np.random.default_rng(6)
        n = 4000
        values = rng.normal(0, 1, n)
        chain = make_chain(values, np.ones(n, dtype=int))
        chain.logf = np.repeat(rng.normal(0, 1, n // 40), 40)[:n]
        refined = refine(chain, 0)
        assert refined.iac_history[0] > 5.0


class TestRefineMatchesVerboseReference:
    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        nrows=st.integers(min_value=2, max_value=300),
        ndim=st.integers(min_value=1, max_value=3),
        max_weight=st.integers(min_value=2, max_value=8),
        phi=st.floats(min_value=0.0, max_value=0.95),
        burnin_share=st.floats(min_value=0.01, max_value=0.5),
    )
    def test_bitwise_equal_on_random_weighted_chains(
        self, seed, nrows, ndim, max_weight, phi, burnin_share
    ):
        rng = np.random.default_rng(seed)
        states = np.empty((nrows, ndim))
        states[0] = rng.normal(0, 1, ndim)
        for i in range(1, nrows):
            states[i] = phi * states[i - 1] + rng.normal(0, 1, ndim)
        weights = rng.integers(1, max_weight + 1, nrows)
        chain = df.CompactChain(
            ndim,
            np.ones(nrows), np.zeros(nrows), np.full(nrows, 0.5), np.zeros(nrows),
            np.zeros(nrows), weights, -0.5 * (states * states).sum(axis=1), states,
        )
        burnin = max(1, int(burnin_share * nrows))
        assume(burnin < nrows and weights[burnin:].max() > 1)
        got = refine(chain, burnin)
        states_ref, logf_ref, history_ref = reference_refine(chain, burnin)
        assert np.array_equal(got.states, states_ref)
        assert np.array_equal(got.logf, logf_ref)
        assert got.iac_history == history_ref
        assert got.ess == weights[burnin:].sum() / history_ref[0]


class TestEffectiveSampleSize:
    def test_white_noise(self):
        rng = np.random.default_rng(1)
        chain = make_chain(rng.normal(0, 1, 1000), np.ones(1000, dtype=int))
        ess = refine(chain, 0).ess
        assert ess == pytest.approx(1000, rel=0.12)

    def test_ar1_half(self):
        series = ar1_series(0.5, 100_000, seed=9)
        chain = make_chain(series, np.ones(series.size, dtype=int))
        ess = refine(chain, 0).ess
        assert ess == pytest.approx(100_000 / 3.0, rel=0.10)

    def test_constant_chain_degenerates_to_n(self):
        chain = make_chain([2.0, 2.0, 2.0], [5, 1, 2])
        # zero variance -> tau = 1 -> ESS equals the verbose length
        assert refine(chain, 0).ess == 8.0


def test_refined_sample_len():
    chain = make_chain([1.0, 2.0], [1, 1])
    assert len(refine(chain, 0)) == 2
