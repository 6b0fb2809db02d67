"""Autocorrelation analysis and recursive chain refinement.

The refinement loop estimates the integrated autocorrelation time of the
verbose chain, thins by that stride, and repeats until the remaining
sample is statistically indistinguishable from uncorrelated. It works on
the compact chain: the sample is held as (row index, weight) pairs, and
every autocorrelation is the FFT estimate over their verbose expansion.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# A pass stops the recursion once tau drops to this threshold.
STOP_TAU = 1.05
# Series shorter than this are not worth re-estimating.
MIN_REFINE_SIZE = 10


@dataclass
class RefinedSample:
    """Decorrelated sample with the tau estimate history that produced it.

    ``ess`` is the post-burn-in verbose length over the first pass's tau,
    at most the post-burn-in row count; it is NaN for a sample not
    produced by ``refine``.
    """

    states: np.ndarray  # (n, ndim)
    logf: np.ndarray  # (n,)
    iac_history: list[float]
    source_burnin: int
    ess: float = math.nan

    def __len__(self) -> int:
        return self.states.shape[0]


def weighted_acf(values, weights, max_lag: int) -> np.ndarray:
    """Autocorrelation of the verbose expansion of a weighted series.

    The FFT estimate of ``autocorrelation`` over the expansion, with the
    unbiased 1/(N-k) scaling so a short strongly-repeating chain thins by
    its full dwell length.
    """
    values = np.asarray(values, dtype=float).reshape(-1)
    weights = np.asarray(weights, dtype=np.int64).reshape(-1)
    if values.size != weights.size:
        raise ValueError("values and weights must have equal length")
    if np.any(weights < 1):
        raise ValueError("weights must be integers >= 1")
    total = int(weights.sum())
    if total < 2:
        raise ValueError("weighted series must expand to at least 2 elements")
    if not 0 <= max_lag < total:
        raise ValueError(f"max_lag must lie in [0, {total - 1}], got {max_lag}")
    return autocorrelation(np.repeat(values, weights), max_lag)


def autocorrelation(series: np.ndarray, max_lag: int) -> np.ndarray:
    """FFT autocorrelation of a plain series with unbiased 1/(N-k) scaling.

    The variance is the FFT's own lag-0 term, not a BLAS dot product,
    whose summation order depends on the BLAS thread count: the result is
    the same bits under any ``OPENBLAS_NUM_THREADS``.
    """
    x = np.asarray(series, dtype=float).reshape(-1)
    n = x.size
    if n < 2:
        raise ValueError("series must have at least 2 elements")
    max_lag = min(max_lag, n - 1)
    dev = x - x.mean()
    m = 1 << (2 * n - 1).bit_length()
    f = np.fft.rfft(dev, m)
    raw = np.fft.irfft(f * np.conj(f), m)[: max_lag + 1]
    c0 = float(raw[0]) / n
    rho = np.zeros(max_lag + 1)
    rho[0] = 1.0
    if c0 == 0.0:
        return rho
    lags = np.arange(1, max_lag + 1)
    rho[1:] = raw[1:] / (n - lags) / c0
    return rho


def integrated_autocorrelation(acf: np.ndarray) -> float:
    """Initial-positive-sequence tau: 1 + 2 * sum of leading positive lags."""
    acf = np.asarray(acf, dtype=float).reshape(-1)
    if acf.size == 0 or acf[0] != 1.0:
        raise ValueError("acf must start with rho(0) == 1")
    tau = 1.0
    for k in range(1, acf.size):
        if acf[k] <= 0.0:
            break
        tau += 2.0 * acf[k]
    return max(tau, 1.0)


def refine(chain, burnin: int) -> RefinedSample:
    """Recursively thin the post-burn-in verbose chain until decorrelated.

    Each pass measures tau (the max over coordinates and logf), records
    it, and keeps every ceil(tau)-th verbose element starting at index 0.
    The recursion stops once tau <= 1.05, once the series is too short to
    re-estimate, or if a noisy estimate stops decreasing. One accepted
    state is at most one independent draw, so the ESS and the sample's
    size are capped at the post-burn-in row count.
    """
    if burnin < 0 or burnin >= chain.n_rows:
        raise ValueError(f"burnin row {burnin} out of range for {chain.n_rows} rows")
    states = chain.states[burnin:]
    logf = chain.logf[burnin:]
    n_rows = states.shape[0]
    # The current sample: the verbose elements kept, as their row indices.
    rows = np.repeat(np.arange(n_rows), chain.weight[burnin:])
    post = rows.size
    history: list[float] = []
    while rows.size >= 2:
        tau = max(
            integrated_autocorrelation(autocorrelation(series[rows], rows.size - 1))
            for series in [*states.T, logf]
        )
        if history and tau >= history[-1]:
            break
        history.append(tau)
        if tau <= STOP_TAU:
            break
        rows = rows[:: math.ceil(tau)]
        if rows.size < MIN_REFINE_SIZE:
            break
    if rows.size > n_rows:
        rows = rows[:: math.ceil(rows.size / n_rows)]
    ess = min(post / history[0] if history else float(post), float(n_rows))
    return RefinedSample(states[rows], logf[rows], history, burnin, ess)
