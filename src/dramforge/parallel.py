"""Parallel execution models and their post-processing statistics.

Fork-join single-chain cycles live in the sampler (the coordinator owns
the chain); this module adds the geometric rank-contribution model, the
zero-overhead speedup curve, the optimal worker count, perfect-parallel
multi-chain runs, and the two-sample KS machinery that compares refined
samples across chains.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .chainio import _format_rows, chain_specs, convergence_path, inspect_outputs, write_replacing
from .core import RunAlreadyComplete, SimSpec, TargetDensity, UsageError
from .sampler import SimulationOutputs, _finished_outputs, _run_or_resume

SPEEDUP_ASYMPTOTE_FRACTION = 0.99
# The fewest points per sample that a two-sample KS test takes.
KS_MIN_POINTS = 5


@dataclass
class ContributionStats:
    """Per-rank accepted-step counts with their geometric fit."""

    counts: np.ndarray  # counts[k-1] = accepted steps won by rank k
    fitted_p: float
    fit_distance: float


def fit_geometric(counts) -> ContributionStats:
    """Maximum-likelihood geometric fit to the rank histogram ``counts``.

    p_hat = total_steps / sum(k * count_k); the fit distance is the total
    variation between the normalized histogram and the fitted law,
    including the fitted tail mass beyond the largest observed rank.
    """
    observed = np.asarray(counts, dtype=float)
    total = observed.sum()
    if total <= 0:
        raise UsageError("fit_geometric requires at least one accepted step")
    ranks = np.arange(1, observed.size + 1)
    p_hat = float(total / (ranks * observed).sum())
    empirical = observed / total
    fitted = p_hat * (1.0 - p_hat) ** (ranks - 1)
    tail = (1.0 - p_hat) ** observed.size
    tv = 0.5 * (np.abs(empirical - fitted).sum() + tail)
    return ContributionStats(counts=counts, fitted_p=p_hat, fit_distance=float(tv))


def contribution_stats(process_ids, n_workers: int) -> ContributionStats:
    """Histogram chain rows by contributing rank and fit the geometric law."""
    pids = np.asarray(process_ids, dtype=np.int64)
    return fit_geometric(np.bincount(pids, minlength=n_workers + 1)[1 : n_workers + 1])


def predict_speedup(mu: float, n: int) -> float:
    """Zero-overhead fork-join speedup S(n), normalized so S(1) == 1.

    With per-candidate acceptance mu, a cycle of n workers advances the
    chain by min(Geometric(mu), n) serial steps, so the expected advance
    is (1 - (1-mu)^n) / mu.
    """
    if not 0.0 < mu <= 1.0:
        raise UsageError("mu must lie in (0, 1]")
    if n < 1:
        raise UsageError("worker count must be positive")
    q = 1.0 - mu
    if q == 0.0:
        return 1.0
    return (1.0 - q**n) / (1.0 - q)


def optimal_num_workers(mu: float) -> int:
    """Smallest n whose expected cycle advance reaches 99% of the 1/mu cap."""
    if not 0.0 < mu <= 1.0:
        raise UsageError("mu must lie in (0, 1]")
    if mu == 1.0:
        return 1
    q = 1.0 - mu
    shortfall = 1.0 - SPEEDUP_ASYMPTOTE_FRACTION
    n = max(1, math.ceil(math.log(shortfall) / math.log(q) - 1e-12))
    while 1.0 - q**n < SPEEDUP_ASYMPTOTE_FRACTION:
        n += 1
    while n > 1 and 1.0 - q ** (n - 1) >= SPEEDUP_ASYMPTOTE_FRACTION:
        n -= 1
    return n


def kolmogorov_sf(x: float) -> float:
    """Survival function of the Kolmogorov distribution.

    Alternating series 2 * sum (-1)^(j-1) exp(-2 j^2 x^2); terms below
    1e-18 stop the sum. Near zero the value saturates at 1.
    """
    if x < 0.01:
        return 1.0
    total = 0.0
    sign = 1.0
    for j in range(1, 100_001):
        term = math.exp(-2.0 * j * j * x * x)
        total += sign * term
        sign = -sign
        if term < 1e-18:
            break
    return min(max(2.0 * total, 0.0), 1.0)


def ks_two_sample(a, b) -> tuple[float, float]:
    """Two-sample KS statistic and asymptotic p-value.

    D is the sup distance between empirical CDFs; the p-value evaluates
    the Kolmogorov distribution at sqrt(na*nb/(na+nb)) * D.
    """
    a = np.sort(np.asarray(a, dtype=float).reshape(-1))
    b = np.sort(np.asarray(b, dtype=float).reshape(-1))
    if a.size < KS_MIN_POINTS or b.size < KS_MIN_POINTS:
        raise UsageError(f"ks_two_sample needs at least {KS_MIN_POINTS} points per sample")
    grid = np.concatenate([a, b])
    cdf_a = np.searchsorted(a, grid, side="right") / a.size
    cdf_b = np.searchsorted(b, grid, side="right") / b.size
    d = float(np.abs(cdf_a - cdf_b).max())
    m_eff = a.size * b.size / (a.size + b.size)
    return d, kolmogorov_sf(math.sqrt(m_eff) * d)


@dataclass
class PairTest:
    chain_a: int
    chain_b: int
    dimension: int
    statistic: float
    p_value: float


@dataclass
class MultiChainReport:
    """Cross-chain convergence verdict from pairwise per-dimension KS tests."""

    tests: list[PairTest]
    n_tests: int
    alpha: float
    flagged: bool

    @property
    def min_p(self) -> float:
        return min((t.p_value for t in self.tests), default=1.0)


def compare_refined_samples(samples: list[np.ndarray], alpha: float = 0.05) -> MultiChainReport:
    """Pairwise per-dimension KS tests with a Bonferroni-corrected flag.

    ``samples`` holds one (n_i, ndim) refined sample per chain. A pair in
    which either sample has fewer than ``KS_MIN_POINTS`` points is not
    tested, and ``n_tests`` counts the tests made. The run is flagged as
    non-converged when any corrected p-value drops below ``alpha``.
    """
    if len(samples) < 2:
        raise UsageError("convergence comparison needs at least two chains")
    arrays = [np.asarray(s, dtype=float).reshape(len(s), -1) for s in samples]
    ndim = arrays[0].shape[1]
    if any(arr.shape[1] != ndim for arr in arrays):
        raise UsageError("refined samples must share dimensionality")
    tests: list[PairTest] = []
    for i in range(len(arrays)):
        for j in range(i + 1, len(arrays)):
            if min(len(arrays[i]), len(arrays[j])) < KS_MIN_POINTS:
                continue
            for dim in range(ndim):
                d, p = ks_two_sample(arrays[i][:, dim], arrays[j][:, dim])
                tests.append(PairTest(i + 1, j + 1, dim + 1, d, p))
    n_tests = len(tests)
    flagged = any(min(t.p_value * n_tests, 1.0) < alpha for t in tests)
    return MultiChainReport(tests=tests, n_tests=n_tests, alpha=alpha, flagged=flagged)


def write_convergence_report(report: MultiChainReport, path: str) -> None:
    """Write the convergence file; it appears whole, marking a finished run."""
    lines = [
        "# dramforge multi-chain convergence v2",
        f"n_tests = {report.n_tests}",
        f"alpha = {report.alpha}",
        f"flagged = {report.flagged}",
        "chainA,chainB,dimension,D,p",
    ]
    columns = [[getattr(t, field.name) for t in report.tests] for field in fields(PairTest)]
    rows = _format_rows("%d,%d,%d,%.17g,%.17g\n", columns)
    write_replacing(path, "\n".join(lines) + "\n" + rows)


def run_multi_chain(
    spec: SimSpec, target: TargetDensity, n_chains: int
) -> tuple[list[SimulationOutputs], MultiChainReport]:
    """Run independent chains and test their refined samples against each other.

    Chain k runs serially on RNG stream k with output prefix
    ``<prefix>_c<k>``. An unfinished run continues: finished chains are
    read back, the others resume or start. A finished one (its convergence
    file exists) raises ``RunAlreadyComplete``.
    """
    if n_chains < 2:
        raise UsageError("run_multi_chain needs n_chains >= 2")
    multi = spec.with_updates(parallelism="multi_chain", num_workers=n_chains)
    if inspect_outputs(multi) == "complete":
        raise RunAlreadyComplete(
            f"outputs for prefix {spec.output_prefix!r} already hold a complete run"
        )
    outputs: list[SimulationOutputs] = []
    for stream, sub in enumerate(chain_specs(spec, n_chains), start=1):
        if inspect_outputs(sub) == "complete":
            outputs.append(_finished_outputs(sub))
        else:
            outputs.append(_run_or_resume(sub, target, stream=stream))
    report = compare_refined_samples([out.refined.states for out in outputs])
    write_convergence_report(report, convergence_path(spec.output_prefix))
    return outputs, report
