"""The benchmark's own effective-sample-size estimator and moment checks.

The benchmark does not use ``dramforge.refinement`` to measure ESS: a change
to the program's refinement must not be able to move the benchmark's
measure of sampling efficiency. The estimator here is Geyer's initial
monotone sequence (Geyer, "Practical Markov Chain Monte Carlo", Stat. Sci.
1992), applied to the expanded (verbose) chain after a fixed burn-in.
"""

from __future__ import annotations

import math

import numpy as np

# Share of the verbose chain dropped as burn-in before any estimate.
BURNIN_SHARE = 0.1
# A moment estimate passes when it lies within this many standard errors.
MOMENT_Z = 5.0


def autocovariance(x: np.ndarray) -> np.ndarray:
    """Biased (1/n) autocovariance of a series at every lag, by FFT."""
    x = np.asarray(x, dtype=float).reshape(-1)
    n = x.size
    dev = x - x.mean()
    m = 1 << (2 * n - 1).bit_length()
    f = np.fft.rfft(dev, m)
    return np.fft.irfft(f * np.conj(f), m)[:n] / n


def iact(x: np.ndarray) -> float:
    """Integrated autocorrelation time by Geyer's initial monotone sequence.

    Sums the pair sums gamma(2m) + gamma(2m+1) up to the first one that is
    not positive, after forcing them to be non-increasing. Returns
    ``len(x)`` for a constant series, whose ESS is then 1.
    """
    acov = autocovariance(x)
    if acov[0] <= 0.0:
        return float(acov.size)
    npairs = (acov.size - 1) // 2
    pairs = acov[0 : 2 * npairs : 2] + acov[1 : 2 * npairs + 1 : 2]
    nonpos = np.flatnonzero(pairs <= 0.0)
    pairs = np.minimum.accumulate(pairs[: nonpos[0] if nonpos.size else pairs.size])
    return float((2.0 * pairs.sum() - acov[0]) / acov[0])


def expand(states: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Verbose chain after the benchmark's burn-in rule."""
    verbose = np.repeat(np.asarray(states, dtype=float), np.asarray(weights), axis=0)
    return verbose[int(BURNIN_SHARE * verbose.shape[0]) :]


def ess(states: np.ndarray, weights: np.ndarray) -> float:
    """Minimum over coordinates of the post-burn-in ESS of a weighted chain."""
    x = expand(states, weights)
    return min(x.shape[0] / iact(x[:, d]) for d in range(x.shape[1]))


class MomentCheck:
    """Pools per-chain moment estimates and tests them against known values.

    Each chain contributes, per coordinate, the sample mean of ``x`` and of
    ``(x - true_mean)**2`` with ESS-scaled standard errors. The pooled
    estimate over chains of one law must lie within ``MOMENT_Z`` pooled
    standard errors of the analytic mean and variance.
    """

    def __init__(self, true_mean: np.ndarray, true_var: np.ndarray):
        self.true_mean = np.asarray(true_mean, dtype=float)
        self.true_var = np.asarray(true_var, dtype=float)
        self._est: list[np.ndarray] = []  # per chain: (2, ndim) estimates
        self._se2: list[np.ndarray] = []  # per chain: squared standard errors

    def add(self, states: np.ndarray, weights: np.ndarray) -> None:
        x = expand(states, weights)
        n = x.shape[0]
        est = np.empty((2, x.shape[1]))
        se2 = np.empty_like(est)
        for row, series in enumerate((x, (x - self.true_mean) ** 2)):
            for d in range(x.shape[1]):
                s = series[:, d]
                est[row, d] = s.mean()
                se2[row, d] = s.var() * iact(s) / n
        self._est.append(est)
        self._se2.append(se2)

    def failures(self) -> tuple[int, int, list[str]]:
        """(checks attempted, checks failed, descriptions of failures)."""
        if not self._est:
            return 0, 0, []
        k = len(self._est)
        est = np.mean(self._est, axis=0)
        se = np.sqrt(np.sum(self._se2, axis=0)) / k
        truth = np.vstack([self.true_mean, self.true_var])
        z = np.abs(est - truth) / np.where(se > 0, se, math.inf)
        bad = []
        for row, what in enumerate(("mean", "variance")):
            for d in range(truth.shape[1]):
                if not z[row, d] <= MOMENT_Z:
                    bad.append(
                        f"{what} of coordinate {d + 1}: {est[row, d]:.5g} vs "
                        f"{truth[row, d]:.5g} ({z[row, d]:.2f} standard errors, {k} chains)"
                    )
        return truth.size, len(bad), bad
