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
from itertools import accumulate

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
    evaluates them in the per-iteration hot path. ``eps_inflations`` counts
    every epsilon doubling ``factorize`` has made since the run began.
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
    eps_inflations: int = 0

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

    Epsilon doubles on each failed attempt, up to FACTORIZE_RETRIES times,
    and each doubling adds one to ``eps_inflations``; a covariance still not
    positive definite after that is unrecoverable.
    """
    eps = state.epsilon
    base = state.scale**2 * state.cov
    eye = np.eye(state.ndim)
    for doublings in range(FACTORIZE_RETRIES + 1):
        try:
            chol = np.linalg.cholesky(base + eps * eye)
        except np.linalg.LinAlgError:
            eps *= 2.0
            continue
        inv, logdet = chol_derived(chol)
        return replace(
            state, epsilon=eps, chol_lower=chol, chol_inv=inv, chol_logdet=logdet,
            eps_inflations=state.eps_inflations + doublings,
        )
    raise NumericalError(
        f"proposal covariance not positive definite after {FACTORIZE_RETRIES} "
        f"epsilon inflations (epsilon reached {eps:g})"
    )


def update_mean_cov(state: ProposalState, points: np.ndarray, weights) -> ProposalState:
    """Absorb weighted chain states into the running mean/covariance.

    ``points`` holds one chain state per row and ``weights`` their integer
    weights >= 1. The mean is folded point by point, one coordinate at a
    time, over Python floats: CPython float arithmetic is IEEE binary64
    without fused multiply-add, so each subtract, multiply and add rounds
    exactly as numpy's elementwise ops do. Each point's scatter term is
    summed in one ``np.add.accumulate``, which adds strictly in point
    order, so the result is bitwise that of adding the terms one point at
    a time, and absorbing a batch in halves produces bitwise the same
    state as absorbing it at once. ``cov`` is the weighted sample
    covariance (denominator ``count - 1``), zero when only one unit of
    weight has been seen.
    """
    weights = np.asarray(weights, dtype=np.int64).tolist()
    if not weights:
        raise NumericalError("update_mean_cov requires a nonempty batch")
    if len(points) != len(weights):
        raise NumericalError("update_mean_cov requires one weight per point")
    ndim = state.ndim
    # counts[k] is the weight absorbed before point k, counts[k + 1] after it.
    counts = list(accumulate(weights, initial=state.sample_count))
    steps = [float(w) / count for w, count in zip(weights, counts[1:])]
    mean = state.mean.tolist()
    deltas = []  # deltas[j][k]: point k's coordinate j minus the mean before it
    for j, xs in enumerate(np.asarray(points, dtype=float).T.tolist()):
        m = mean[j]
        ds = []
        for x, c in zip(xs, steps):
            d = x - m
            m += c * d
            ds.append(d)
        mean[j] = m
        deltas.append(ds)
    # Point k adds w * (count_before / count) * outer(d, d): exactly
    # symmetric, unlike the outer(d_before, d_after) form. A point
    # absorbed into empty statistics adds zeros, also where outer(d, d)
    # overflows (0 * inf would be nan). The terms are laid out along the
    # last axis, which accumulate walks contiguously.
    coeffs = [float(w) * before / after for w, before, after in zip(weights, counts, counts[1:])]
    d = np.array(deltas)
    terms = np.empty((ndim, ndim, len(weights) + 1))
    terms[:, :, 0] = state.scatter
    np.multiply(d[:, None, :], d[None, :, :], out=terms[:, :, 1:])
    terms[:, :, 1:] *= coeffs
    if counts[0] == 0:
        terms[:, :, 1] = 0.0
    scatter = np.add.accumulate(terms, axis=2, out=terms)[:, :, -1].copy()
    count = counts[-1]
    if count >= 2:
        cov = scatter / (count - 1)
    else:
        cov = np.zeros_like(scatter)
    epsilon = max(state.eps_rel * np.trace(cov) / state.ndim, EPS_FLOOR)
    updated = replace(
        state,
        mean=np.array(mean),
        scatter=scatter,
        cov=cov,
        epsilon=epsilon,
        sample_count=count,
    )
    return factorize(updated)


def _fold(mat: np.ndarray, vecs: np.ndarray) -> np.ndarray:
    """``mat @ v`` for every row ``v`` of ``vecs``, as an elementwise fold.

    Column ``j``'s products are added in column order with numpy's
    elementwise multiply and add, never a BLAS product, whose summation
    order depends on the array shapes and the CPU. A row's result is
    therefore the same bits whichever block of rows it is computed in.
    """
    out = vecs[:, :1] * mat[:, 0]
    for j in range(1, mat.shape[1]):
        out += vecs[:, j : j + 1] * mat[:, j]
    return out


def _steps(state: ProposalState, z: np.ndarray, dr_stage: int) -> np.ndarray:
    """Stage-``dr_stage`` steps ``dr_scale**dr_stage * (chol_lower @ v)``, per row ``v`` of ``z``."""
    step = _fold(state.chol_lower, z)
    if dr_stage:
        step *= state.dr_scale**dr_stage
    return step


def _kernel_log_densities(state: ProposalState, deltas: np.ndarray, dr_stage: int) -> np.ndarray:
    """Log density of the stage-``dr_stage`` kernel at each row offset of ``deltas``.

    The squares are summed in column order, like ``_fold``'s products.
    """
    ndim = deltas.shape[1]
    w = _fold(state.chol_inv, deltas)
    quad = w[:, 0] * w[:, 0]
    for j in range(1, ndim):
        quad += w[:, j] * w[:, j]
    logdet = state.chol_logdet
    if dr_stage:
        lam = state.dr_scale**dr_stage
        quad /= lam * lam
        logdet += 2.0 * ndim * math.log(lam)
    return -0.5 * (quad + logdet + ndim * math.log(2.0 * math.pi))


def propose(
    state: ProposalState,
    center: np.ndarray,
    dr_stage: int,
    rng: SplitMix64,
) -> np.ndarray:
    """Draw one candidate around ``center`` for the given DR stage.

    Consumes exactly ``ndim`` Gaussian deviates in coordinate order, at
    every stage, so RNG consumption per attempt is fixed. The step is the
    one-row case of ``_steps``, so it equals a ``KernelTape`` step.
    """
    z = rng.gauss_vector(center.size)
    return center + _steps(state, z[None, :], dr_stage)[0]


def log_kernel(state: ProposalState, delta: np.ndarray, dr_stage: int = 0) -> float:
    """Log density of the stage-``dr_stage`` proposal kernel at offset ``delta``."""
    return float(_kernel_log_densities(state, delta[None, :], dr_stage)[0])


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


class KernelTape:
    """The proposal side of a stream's next DR attempts, under one proposal.

    Slot ``s`` is the stream's ``s``-th next slot (see
    ``SplitMix64.peek_block``). An attempt that starts at slot ``i`` tries
    stage ``j`` on slot ``i + j``: candidate ``x + ys[i][j]``, verdict
    ``logu[i + j] < log alpha``. ``ys[i]`` stacks the attempt's steps
    ``d1, d2, ...``, ``dj`` stage ``j - 1``'s step on its slot, so all of
    its candidates are one add. With x point 0 and the stage-(j-1)
    candidate point j, the DR algebra weighs points a and a + dist by the
    stage-(dist-1) kernel at their difference, ``d(a+dist)`` for a = 0 and
    ``da - d(a+dist)`` otherwise, so these terms are computed ahead too:
    ``kern[dist - 1][a][i]``, one list per pair over the attempt starts.
    A row's values do not depend on the block it is in.

    ``i`` is the next slot, the stream's only slot cursor, and ``n`` the
    number of attempt starts held; ``stages`` more slots are held as
    look-ahead. ``states[s]`` and ``caches[s]`` are the stream's position
    after ``s`` held slots; the tape's owner moves the stream there after
    each attempt. ``logfs`` (one value per point) and ``memo`` are the
    owner's scratch for an attempt's DR algebra, reused by every attempt.
    """

    __slots__ = ("prop", "stages", "i", "n", "z", "logu", "states", "caches", "ys", "kern",
                 "logfs", "memo")

    def __init__(self, prop: ProposalState, z: np.ndarray, logu: list, states: list,
                 caches: list, stages: int):
        n = len(logu) - stages
        self.prop, self.stages = prop, stages
        self.i, self.n, self.z, self.logu = 0, n, z, logu
        self.states, self.caches = states, caches
        step = _steps(prop, z, 0)
        d = [step[:n]] + [step[j : n + j] * prop.dr_scale**j for j in range(1, stages + 1)]
        self.ys = np.stack(d, axis=1)
        self.logfs, self.memo = [0.0] * (stages + 2), {}
        # One kernel pass per distance over its pairs' stacked differences;
        # the kernel is row-wise, so stacking keeps each value's bits.
        self.kern = []
        for dist in range(1, stages + 1):
            diffs = [d[dist - 1]] + [d[b - dist] - d[b] for b in range(dist, stages + 1)]
            k = _kernel_log_densities(prop, np.concatenate(diffs), dist - 1).tolist()
            self.kern.append([k[j : j + n] for j in range(0, len(k), n)])

    @classmethod
    def peek(cls, prop: ProposalState, rng: SplitMix64, stages: int, size: int) -> "KernelTape":
        """A tape of the stream's next ``size`` attempt starts."""
        z, logu, states, caches = rng.peek_block(size + stages, prop.ndim)
        return cls(prop, z, logu.tolist(), states, caches, stages)

    def rebased(self, prop: ProposalState) -> "KernelTape":
        """The slots not yet used, under another proposal."""
        i = self.i
        return KernelTape(prop, self.z[i:], self.logu[i:], self.states[i:], self.caches[i:],
                          self.stages)
