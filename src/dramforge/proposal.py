"""Adaptive multivariate Gaussian proposal state.

The proposal absorbs the weighted chain history through an exact online
mean/covariance recursion, keeps a Cholesky factor of the regularized
effective covariance, shrinks deterministically per delayed-rejection
stage, and measures how much each adaptation moved the distribution via
a closed-form total-variation upper bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .core import NumericalError, SplitMix64

EPS_FLOOR = 1e-300
FACTORIZE_RETRIES = 10


@dataclass
class ProposalState:
    """Gaussian proposal shape plus the running statistics that feed it.

    ``mean``/``cov`` are the weighted sample mean and covariance of every
    chain state absorbed so far (``sample_count`` is the total absorbed
    weight). ``scatter`` is the raw sum of weighted squared deviations;
    keeping it instead of re-deriving it from ``cov`` makes the update
    recursion exactly associative, which checkpoint resume relies on.
    ``chol_lower`` factors ``scale**2 * cov + epsilon * I``; its inverse
    and log-determinant are cached because the delayed-rejection kernel
    evaluates them in the per-iteration hot path.
    """

    mean: np.ndarray
    scatter: np.ndarray
    cov: np.ndarray
    chol_lower: np.ndarray
    chol_inv: np.ndarray
    chol_logdet: float
    scale: float
    epsilon: float
    eps_rel: float
    dr_scale: float
    sample_count: int
    adaptation_count: int

    @property
    def ndim(self) -> int:
        return self.mean.size

    def copy(self) -> "ProposalState":
        return replace(
            self,
            mean=self.mean.copy(),
            scatter=self.scatter.copy(),
            cov=self.cov.copy(),
            chol_lower=self.chol_lower.copy(),
            chol_inv=self.chol_inv.copy(),
        )


def initial_proposal(
    ndim: int,
    scale: float,
    eps_rel: float = 1e-12,
    dr_scale: float = 0.5,
) -> ProposalState:
    """Fresh proposal: identity covariance, no history absorbed yet."""
    state = ProposalState(
        mean=np.zeros(ndim),
        scatter=np.zeros((ndim, ndim)),
        cov=np.eye(ndim),
        chol_lower=np.zeros((ndim, ndim)),
        chol_inv=np.zeros((ndim, ndim)),
        chol_logdet=0.0,
        scale=float(scale),
        epsilon=max(eps_rel, EPS_FLOOR),
        eps_rel=float(eps_rel),
        dr_scale=float(dr_scale),
        sample_count=0,
        adaptation_count=0,
    )
    return factorize(state)


def effective_cov(state: ProposalState) -> np.ndarray:
    """The covariance actually proposed from: scale**2 * cov + epsilon * I."""
    ndim = state.ndim
    return state.scale**2 * state.cov + state.epsilon * np.eye(ndim)


def chol_derived(chol: np.ndarray) -> tuple[np.ndarray, float]:
    """Inverse factor and log-determinant of the effective covariance."""
    inv = np.linalg.inv(chol)
    logdet = 2.0 * float(np.log(np.diag(chol)).sum())
    return inv, logdet


def factorize(state: ProposalState) -> ProposalState:
    """Refresh the Cholesky factor, inflating epsilon on failure.

    Epsilon doubles on each failed attempt, up to FACTORIZE_RETRIES times;
    a covariance still not positive definite after that is unrecoverable.
    """
    eps = state.epsilon
    base = state.scale**2 * state.cov
    eye = np.eye(state.ndim)
    for _ in range(FACTORIZE_RETRIES + 1):
        try:
            chol = np.linalg.cholesky(base + eps * eye)
        except np.linalg.LinAlgError:
            eps *= 2.0
            continue
        inv, logdet = chol_derived(chol)
        return replace(
            state, epsilon=eps, chol_lower=chol, chol_inv=inv, chol_logdet=logdet
        )
    raise NumericalError(
        f"proposal covariance not positive definite after {FACTORIZE_RETRIES} "
        f"epsilon inflations (epsilon reached {eps:g})"
    )


def update_mean_cov(state: ProposalState, batch) -> ProposalState:
    """Absorb weighted chain states into the running mean/covariance.

    ``batch`` is a sequence of ``(point, weight)`` pairs with integer
    weights >= 1. The fold is per point, so absorbing a batch in halves
    produces bitwise the same state as absorbing it at once. ``cov`` is
    the weighted sample covariance (denominator ``count - 1``), zero when
    only one unit of weight has been seen.
    """
    if not batch:
        raise NumericalError("update_mean_cov requires a nonempty batch")
    mean = state.mean.copy()
    scatter = state.scatter.copy()
    count = state.sample_count
    for point, weight in batch:
        w = float(weight)
        count += int(weight)
        delta = point - mean
        mean += (w / count) * delta
        # w * (count_old / count) * outer(d, d) is exactly symmetric,
        # unlike the outer(d_before, d_after) form.
        coeff = w * (count - int(weight)) / count if count > int(weight) else 0.0
        if coeff != 0.0:
            scatter += coeff * (delta[:, None] * delta)
    if count >= 2:
        cov = scatter / (count - 1)
    else:
        cov = np.zeros_like(scatter)
    epsilon = max(state.eps_rel * np.trace(cov) / state.ndim, EPS_FLOOR)
    updated = replace(
        state,
        mean=mean,
        scatter=scatter,
        cov=cov,
        epsilon=epsilon,
        sample_count=count,
    )
    return factorize(updated)


def propose(
    state: ProposalState,
    center: np.ndarray,
    dr_stage: int,
    rng: SplitMix64,
) -> np.ndarray:
    """Draw one candidate around ``center`` for the given DR stage.

    Consumes exactly ``ndim`` Gaussian deviates in coordinate order, at
    every stage, so RNG consumption per attempt is fixed.
    """
    chol = state.chol_lower
    ndim = center.size
    if ndim == 1:
        step = chol[0, 0] * rng.gauss()
        if dr_stage:
            step *= state.dr_scale**dr_stage
        return center + step
    step = chol @ rng.gauss_vector(ndim)
    if dr_stage:
        step *= state.dr_scale**dr_stage
    return center + step


def log_kernel(state: ProposalState, delta: np.ndarray, dr_stage: int = 0) -> float:
    """Log density of the stage-``dr_stage`` proposal kernel at offset ``delta``."""
    ndim = delta.size
    if ndim == 1:
        w = state.chol_inv[0, 0] * delta[0]
        quad = w * w
    else:
        w = state.chol_inv @ delta
        quad = float(w @ w)
    logdet = state.chol_logdet
    if dr_stage:
        lam = state.dr_scale**dr_stage
        quad /= lam * lam
        logdet += 2.0 * ndim * math.log(lam)
    return -0.5 * (quad + logdet + ndim * math.log(2.0 * math.pi))


def adaptation_measure(old: ProposalState, new: ProposalState) -> float:
    """Upper bound on the total variation distance between two proposals.

    For Gaussians N(mean, effective_cov) the squared Hellinger distance
    H2 has a closed form through the Bhattacharyya coefficient, and
    sqrt(H2 * (2 - H2)) bounds TV from above. The result is 0 for
    identical proposals, 1 in the disjoint-support limit.
    """
    if old.ndim != new.ndim:
        raise NumericalError("adaptation_measure requires equal dimensions")
    s1 = effective_cov(old)
    s2 = effective_cov(new)
    avg = (s1 + s2) / 2.0
    sign, logdet_avg = np.linalg.slogdet(avg)
    if sign <= 0:
        raise NumericalError("average proposal covariance is singular")
    _, logdet1 = np.linalg.slogdet(s1)
    _, logdet2 = np.linalg.slogdet(s2)
    dmu = new.mean - old.mean
    quad = float(dmu @ np.linalg.solve(avg, dmu))
    log_bc = 0.25 * logdet1 + 0.25 * logdet2 - 0.5 * logdet_avg - 0.125 * quad
    log_bc = min(log_bc, 0.0)
    h2 = -math.expm1(log_bc)
    h2 = min(max(h2, 0.0), 1.0)
    return min(math.sqrt(h2 * (2.0 - h2)), 1.0)
