"""Deterministic RNG, log-density targets, and the simulation specification.

The random generator is fixed to SplitMix64 plus a cached Box-Muller
transform. Both are closed-form recurrences, so the number of raw draws
consumed by any operation never depends on platform or on rejection luck.
That fixed consumption is what lets an interrupted run resume bit-for-bit
from a checkpoint.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

MASK64 = (1 << 64) - 1
GOLDEN_GAMMA = 0x9E3779B97F4A7C15
_INV_2POW53 = 1.0 / (1 << 53)
TWO_PI = 2.0 * math.pi
MAX_DR_STAGES = 2  # the most delayed-rejection stages an attempt tries after stage 0


class DramforgeError(Exception):
    """Base class for all library errors."""


class UsageError(DramforgeError):
    """Invalid arguments, configuration, or call sequence."""


class NumericalError(DramforgeError):
    """Unrecoverable numerical failure (NaN target, singular covariance)."""


class ResumeRefused(DramforgeError):
    """Restart protocol cannot or must not proceed."""


class RunAlreadyComplete(ResumeRefused):
    """Output files for this prefix already hold a finished run."""


_M1, _M2 = 0xBF58476D1CE4E5B9, 0x94D049BB133111EB
_GAMMA64 = np.uint64(GOLDEN_GAMMA)


def _mix64(z: np.ndarray) -> np.ndarray:
    """SplitMix64 output function over a uint64 array (wraps mod 2**64)."""
    z = (z ^ (z >> np.uint64(30))) * np.uint64(_M1)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(_M2)
    return z ^ (z >> np.uint64(31))


class SplitMix64:
    """SplitMix64 stream with Box-Muller Gaussian deviates.

    ``stream_id`` selects a decorrelated substream of the same seed, used
    to give every worker rank its own reproducible sequence. The second
    Box-Muller deviate is cached so Gaussian draws consume a fixed number
    of raw outputs; the cache is part of the serialized state.

    The stream's position is ``state`` (the counter of the last raw draw)
    and ``gauss_cache``, and nothing else. Scalar draws step the
    ``state += gamma`` recurrence one raw at a time.

    A *slot* is what one delayed-rejection stage attempt draws: ``ndim``
    ``gauss()`` deviates, then one ``uniform()``. The recurrence is a
    counter, so ``peek_block`` computes the next slots, and the position
    after each, in one vectorized pass without consuming them. ``tape``
    is free for a consumer to hang values derived from peeked slots; it
    then moves the stream itself, to the position after the slots it
    used. The stream drops the tape on ``setstate`` (so on ``copy``) and
    on any scalar draw, since its next draws may no longer be those slots.
    """

    __slots__ = ("state", "stream_id", "gauss_cache", "tape")

    def __init__(self, seed: int, stream_id: int = 0):
        if not 0 <= seed <= MASK64:
            raise UsageError(f"seed must be a 64-bit unsigned integer, got {seed}")
        if not 0 <= stream_id <= MASK64:
            raise UsageError(f"stream_id must be a 64-bit unsigned integer, got {stream_id}")
        self.setstate(((seed ^ ((stream_id * GOLDEN_GAMMA) & MASK64)) & MASK64, stream_id, None))

    def _draw(self) -> int:
        """The next raw draw: one step of the recurrence."""
        self.tape = None
        z = self.state = (self.state + GOLDEN_GAMMA) & MASK64
        z = ((z ^ (z >> 30)) * _M1) & MASK64
        z = ((z ^ (z >> 27)) * _M2) & MASK64
        return z ^ (z >> 31)

    def next_uint64(self) -> int:
        return self._draw()

    def uniform(self) -> float:
        """Next deviate in [0, 1), from the top 53 bits of the stream."""
        # Top-53-bit truncation keeps the result strictly below 1.0, which
        # a rounded 64-bit division would not.
        return (self._draw() >> 11) * _INV_2POW53

    def gauss(self) -> float:
        """Next standard normal deviate (Box-Muller, no rejection loop)."""
        if self.gauss_cache is not None:
            g = self.gauss_cache
            self.gauss_cache = self.tape = None
            return g
        u1 = self.uniform()
        u2 = self.uniform()
        r = math.sqrt(-2.0 * math.log(1.0 - u1))
        theta = TWO_PI * u2
        self.gauss_cache = r * math.sin(theta)
        return r * math.cos(theta)

    def gauss_vector(self, n: int) -> np.ndarray:
        """The next ``n`` deviates of ``gauss()``, as an array."""
        gauss = self.gauss
        return np.array([gauss() for _ in range(n)], dtype=float)

    def peek_block(self, k: int, ndim: int) -> tuple[np.ndarray, np.ndarray, list, list]:
        """The next ``k`` slots and the position after each, not consumed.

        Returns ``z`` of shape ``(k, ndim)``, the Gaussians ``gauss()``
        would give slot by slot, ``logu`` of shape ``(k,)``, the log of
        each slot's ``uniform()`` (``-inf`` for a uniform of 0), and the
        lists ``states`` and ``caches``: the ``state`` and ``gauss_cache``
        after 0, 1, ..., ``k`` slots. Every value is bitwise the scalar
        one: the uniforms and counters are exact in ``uint64``, and
        ``log``, ``cos`` and ``sin`` are libm's, called per value.
        """
        base, cache = self.state, self.gauss_cache
        c0 = 0 if cache is None else 1
        # Gaussian t of the peek is the cache (t < c0) or half of Box-Muller
        # pair (t - c0) // 2. A pair's two uniforms are drawn when its
        # cosine is asked for, after the uniforms of the slots before.
        npairs = (k * ndim - c0 + 1) // 2
        first = c0 + 2 * np.arange(npairs)
        u1_at = first - c0 + first // ndim
        slots = np.arange(k + 1)
        after = 2 * ((slots * ndim - c0 + 1) // 2) + slots  # raws drawn by slot ends
        # Raw j (from 1) mixes the counter base + j * gamma, exact in uint64.
        counters = np.arange(1, after[-1] + 1, dtype=np.uint64) * _GAMMA64 + np.uint64(base)
        u = (_mix64(counters) >> np.uint64(11)).astype(float) * _INV_2POW53  # exact
        r = np.sqrt(-2.0 * _libm(math.log, (1.0 - u[u1_at]).tolist()))
        theta = (TWO_PI * u[u1_at + 1]).tolist()
        g = np.empty(c0 + 2 * npairs)
        if c0:
            g[0] = cache
        g[c0::2] = r * _libm(math.cos, theta)
        g[c0 + 1 :: 2] = r * _libm(math.sin, theta)
        # After s slots a sine is left in the cache when an odd number of
        # Gaussians came from pairs; it is the next slot's first Gaussian.
        caches = [None] * (k + 1)
        caches[0] = cache
        odd = np.flatnonzero((slots[1:] * ndim - c0) & 1) + 1
        for s, value in zip(odd.tolist(), g[odd * ndim].tolist()):
            caches[s] = value
        states = (after.astype(np.uint64) * _GAMMA64 + np.uint64(base)).tolist()
        z = g[: k * ndim].reshape(k, ndim)
        return z, _logs(u[after[1:] - 1].tolist()), states, caches

    def getstate(self) -> tuple[int, int, float | None]:
        return (self.state, self.stream_id, self.gauss_cache)

    def setstate(self, state: tuple[int, int, float | None]) -> None:
        self.state, self.stream_id, self.gauss_cache = state
        self.tape = None

    @classmethod
    def from_state(cls, state: tuple[int, int, float | None]) -> "SplitMix64":
        rng = cls.__new__(cls)
        rng.setstate(tuple(state))
        return rng

    def copy(self) -> "SplitMix64":
        return SplitMix64.from_state(self.getstate())

    def __repr__(self) -> str:
        return f"SplitMix64(state={self.state:#x}, stream_id={self.stream_id})"


def _libm(fn, values: list) -> np.ndarray:
    """``fn``, a ``math`` function, of each value: libm's rounding, not numpy's."""
    return np.fromiter(map(fn, values), float, len(values))


def _logs(values: list) -> np.ndarray:
    """libm ``log`` of each value, with ``log(0) = -inf``."""
    try:
        return _libm(math.log, values)
    except ValueError:  # a uniform of exactly 0
        return np.array([math.log(v) if v > 0.0 else -math.inf for v in values])


class TargetDensity:
    """A natural-log density (possibly unnormalized) on R^ndim.

    ``log_density`` maps a length-``ndim`` float array to a real; ``-inf``
    means the point is outside the support and is always rejected. NaN and
    ``+inf`` are treated as caller bugs: the sampler aborts with
    ``NumericalError`` at the start point or at any delayed-rejection stage
    the attempt reaches.

    ``batch``, if given, is a native vectorized form: it maps an ``(m,
    ndim)`` array to ``m`` values, and value ``j`` must be bit for bit
    ``log_density(points[j])`` (any NaN for a NaN). Both forms must be
    pure. The sampler then evaluates all of a delayed-rejection attempt's
    candidates in one call, and its chain is the one the scalar form alone
    would give.
    """

    __slots__ = ("ndim", "log_density", "batch")

    def __init__(self, ndim: int, log_density, batch=None):
        if ndim < 1:
            raise UsageError(f"ndim must be positive, got {ndim}")
        self.ndim = int(ndim)
        self.log_density = log_density
        self.batch = batch

    def __call__(self, point):
        """The log density at ``point``, or at each row of a 2-D array as a list.

        A point, or a batch's row, whose length is not ``ndim`` is a
        ``UsageError``: numpy would broadcast it silently.
        """
        if getattr(point, "ndim", 1) != 2:
            if len(point) != self.ndim:
                raise UsageError(f"target has ndim {self.ndim}, "
                                 f"got a point of length {len(point)}")
            return float(self.log_density(point))
        if point.shape[1] != self.ndim:
            raise UsageError(f"target has ndim {self.ndim}, got a batch of rows of length "
                             f"{point.shape[1]}")
        if self.batch is None:
            return [float(self.log_density(row)) for row in point]
        values = [float(v) for v in self.batch(point)]
        if len(values) != len(point):
            raise UsageError(f"target batch gave {len(values)} values for {len(point)} points")
        return values


@dataclass(frozen=True)
class BuiltinTarget:
    """CLI-selectable test target: kind plus kind-specific parameters."""

    kind: str
    params: dict

    def __post_init__(self):
        if self.kind not in ("mvn", "rosenbrock", "gauss_mixture"):
            raise UsageError(f"unknown builtin target kind {self.kind!r}")


def _check_spd(cov: np.ndarray, what: str) -> np.ndarray:
    cov = np.asarray(cov, dtype=float)
    if cov.ndim != 2 or cov.shape[0] != cov.shape[1]:
        raise UsageError(f"{what} covariance must be a square matrix")
    if not np.allclose(cov, cov.T, rtol=1e-12, atol=0.0):
        raise UsageError(f"{what} covariance must be symmetric")
    try:
        np.linalg.cholesky(cov)
    except np.linalg.LinAlgError:
        raise UsageError(f"{what} covariance must be positive definite") from None
    return cov


def _spd_stack(means: list, covs, ndim: int) -> np.ndarray | None:
    """The covariances as one ``(K, ndim, ndim)`` array, or None if any fails a check.

    Checks every mean's length and every covariance's shape, symmetry
    (``_check_spd``'s ``allclose``, which tests each entry alone) and
    positive definiteness, with one test or factorization of the stack,
    so a stack passes exactly when every component passes ``_check_spd``.
    """
    if any(m.size != ndim for m in means):
        return None
    try:
        stack = np.array(covs, dtype=float)
    except (ValueError, TypeError):  # ragged or not numbers
        return None
    if stack.shape[1:] != (ndim, ndim):
        return None
    if not np.allclose(stack, stack.transpose(0, 2, 1), rtol=1e-12, atol=0.0):
        return None
    try:
        np.linalg.cholesky(stack)
    except np.linalg.LinAlgError:
        return None
    return stack


def mvn_target(mean, cov=None) -> TargetDensity:
    """Multivariate normal log-density up to its additive constant.

    With zero mean and identity covariance this is exactly -0.5 * sum(x**2).
    """
    mean = np.asarray(mean, dtype=float).reshape(-1)
    ndim = mean.size
    if cov is None:
        cov = np.eye(ndim)
    cov = _check_spd(cov, "mvn")
    if cov.shape[0] != ndim:
        raise UsageError("mvn mean and covariance dimensions disagree")
    identity = bool(np.array_equal(cov, np.eye(ndim)))
    prec = np.linalg.inv(cov)
    # One BLAS call (ddot, dgemv) per product. x - (+0.0) is x for every
    # double, so an identity target with a mean of all +0.0 (a -0.0 entry
    # turns -0.0 into +0.0) skips the subtraction. It still makes the point
    # a contiguous float array, as x - mean does: a list or an int array
    # would not reach BLAS, and a strided one would reach a ddot that sums
    # in another order.
    if identity and not mean.view(np.uint64).any():
        def log_density(x):
            x = np.ascontiguousarray(x, dtype=float)
            return -0.5 * float(x.dot(x))
    elif identity:
        def log_density(x):
            d = x - mean
            return -0.5 * float(d.dot(d))
    else:
        def log_density(x):
            d = x - mean
            q = float(d.dot(prec.dot(d)))
            # Far out, products of both signs overflow and the form reads
            # NaN or -inf: the density there is 0.
            return -0.5 * q if q > -math.inf else -math.inf

    return TargetDensity(ndim, log_density)


def rosenbrock_target(ndim: int, scale: float = 100.0) -> TargetDensity:
    """Banana-shaped Rosenbrock log-density, a stiff sampler stress test."""
    if ndim < 2:
        raise UsageError("rosenbrock target needs ndim >= 2")
    if scale <= 0:
        raise UsageError("rosenbrock scale must be positive")

    def log_density(x):
        a = x[1:] - x[:-1] ** 2
        b = 1.0 - x[:-1]
        return -float(scale * a.dot(a) + b.dot(b))

    return TargetDensity(ndim, log_density)


def mixture_target(weights, means, covs) -> TargetDensity:
    """Gaussian mixture log-density with fully normalized components.

    Component means and precisions are stacked once, so a call is one
    vectorized quadratic form over all components plus a max-shifted
    log-sum-exp. Far out, a full precision's quadratic form sums products
    of both signs that overflow, and its term reads NaN or ``+inf``; that
    component's density there is 0, so the term becomes ``-inf``. The
    guard runs only when a peak is NaN or ``+inf``, so finite values keep
    their bits and their cost.
    """
    weights = np.asarray(weights, dtype=float).reshape(-1)
    means = [np.asarray(m, dtype=float).reshape(-1) for m in means]
    if len(means) != weights.size or len(covs) != weights.size:
        raise UsageError("mixture weights, means, and covariances must align")
    if weights.size == 0:
        raise UsageError("mixture needs at least one component")
    if np.any(weights <= 0):
        raise UsageError("mixture weights must be positive")
    if abs(weights.sum() - 1.0) > 1e-9:
        raise UsageError("mixture weights must sum to 1")
    ndim = means[0].size
    stack = _spd_stack(means, covs, ndim)
    if stack is None:
        # Some component is at fault: name the first, checking one at a time.
        for k, (m, c) in enumerate(zip(means, covs), start=1):
            if m.size != ndim:
                raise UsageError(f"mixture component {k} mean has {m.size} coordinates, "
                                 f"component 1's has {ndim}")
            c = _check_spd(c, f"mixture component {k}")
            if c.shape[0] != ndim:
                raise UsageError(f"mixture component {k} covariance is "
                                 f"{c.shape[0]}x{c.shape[0]}, its mean has {ndim} coordinates")
    # numpy's linalg runs LAPACK on each matrix of a stack as on one
    # matrix alone, so these are the per-component bits.
    precs = np.linalg.inv(stack)
    lognorms = -0.5 * (ndim * math.log(TWO_PI) + np.linalg.slogdet(stack)[1])
    means = np.stack(means)
    offsets = np.log(weights) + lognorms

    def log_density(x):
        d = x - means
        terms = offsets - 0.5 * np.einsum("ki,kij,kj->k", d, precs, d)
        peak = terms.max()
        if not peak < math.inf:  # NaN or +inf: an overflowed quadratic form
            terms = np.where(terms < math.inf, terms, -math.inf)
            peak = terms.max()
        if peak == -math.inf:
            return -math.inf
        return float(peak + math.log(np.exp(terms - peak).sum()))

    def batch(points):
        # log_density's operations over rows: per row, the same einsum
        # summation order, max and pairwise sum, and libm's log (np.log
        # can differ from it).
        d = points[:, None, :] - means
        terms = offsets - 0.5 * np.einsum("mki,kij,mkj->mk", d, precs, d)
        peak = np.maximum.reduce(terms, axis=1)
        peaks = peak.tolist()
        if not sum(peaks) < math.inf:  # a row's peak is NaN or +inf
            terms = np.where(terms < math.inf, terms, -math.inf)
            peak = np.maximum.reduce(terms, axis=1)
            peaks = peak.tolist()
        if -math.inf in peaks:  # no shift for a row outside every component
            peak[peak == -math.inf] = 0.0
        sums = np.add.reduce(np.exp(terms - peak[:, None]), axis=1).tolist()
        return [p if p == -math.inf else p + math.log(s) for p, s in zip(peaks, sums)]

    # einsum picks its loop order from the operand shapes. With a single
    # component the k axis drops out, and at ndim 2 the one-point and the
    # three-point forms then sum the quadratic form in different orders;
    # with two or more components they sum in the same one.
    return TargetDensity(ndim, log_density, batch if len(means) > 1 else None)


def build_target(target: BuiltinTarget) -> TargetDensity:
    """Instantiate a density evaluator for a builtin target record."""
    p = target.params
    if target.kind == "mvn":
        return mvn_target(p["mean"], p.get("cov"))
    if target.kind == "rosenbrock":
        return rosenbrock_target(p["ndim"], p.get("scale", 100.0))
    return mixture_target(p["weights"], p["means"], p["covs"])


CHAIN_FORMATS = ("compact", "verbose")
FILE_ENCODINGS = ("ascii", "binary")
PARALLELISM_MODES = ("none", "single_chain", "multi_chain")

# (name, kind) for every SimSpec field, in echo order. The kinds are those
# of the chainio text codec: int, u64, f64, str, vector, window.
SIMSPEC_FIELDS = (
    ("ndim", "int"),
    ("chain_size", "int"),
    ("start_point", "vector"),
    ("seed", "u64"),
    ("output_prefix", "str"),
    ("chain_format", "str"),
    ("file_encoding", "str"),
    ("adaptation_period", "int"),
    ("greedy_adaptation_count", "int"),
    ("dr_stage_count", "int"),
    ("dr_scale_factor", "f64"),
    ("proposal_scale", "f64"),
    ("cov_epsilon", "f64"),
    ("parallelism", "str"),
    ("num_workers", "int"),
    ("target_acceptance_window", "window"),
)


# Default of every optional SimSpec field; a callable derives it from ndim.
_SIMSPEC_DEFAULTS = {
    "chain_size": 10_000,
    "start_point": np.zeros,
    "seed": 0,
    "chain_format": "compact",
    "file_encoding": "ascii",
    "adaptation_period": lambda ndim: 100 * ndim,
    "greedy_adaptation_count": 0,
    "dr_stage_count": 1,
    "dr_scale_factor": 0.5,
    "proposal_scale": lambda ndim: 2.38 / math.sqrt(ndim),
    "cov_epsilon": 1e-12,
    "parallelism": "none",
    "num_workers": 1,
    "target_acceptance_window": None,
}

# Normalizing conversion per SIMSPEC_FIELDS kind; validation normalizes the
# window, and strings are kept as given.
_SIMSPEC_CASTS = {
    "int": int,
    "u64": int,
    "f64": float,
    "vector": lambda value: np.asarray(value, dtype=float).reshape(-1),
}


@dataclass
class SimSpec:
    """Complete simulation specification with defaulted fields resolved.

    Pass ``None`` (or omit) to take a default; ``provenance`` records, per
    field, whether the final value came from the user or from a default.
    ``chain_size`` counts verbose iterations: the start point occupies the
    first slot and every later slot is one proposal attempt, so the chain
    row weights always sum to exactly ``chain_size``.
    """

    ndim: int
    output_prefix: str
    chain_size: int | None = None
    start_point: np.ndarray | None = None
    seed: int | None = None
    chain_format: str | None = None
    file_encoding: str | None = None
    adaptation_period: int | None = None
    greedy_adaptation_count: int | None = None
    dr_stage_count: int | None = None
    dr_scale_factor: float | None = None
    proposal_scale: float | None = None
    cov_epsilon: float | None = None
    parallelism: str | None = None
    num_workers: int | None = None
    target_acceptance_window: tuple[float, float] | None = None
    provenance: dict = field(default_factory=dict, compare=False)

    def __post_init__(self):
        self.ndim = int(self.ndim)
        if self.ndim < 1:
            raise UsageError(f"ndim must be positive, got {self.ndim}")
        if not isinstance(self.output_prefix, str) or not self.output_prefix:
            raise UsageError("output_prefix must be a nonempty path string")
        prov = dict(self.provenance)
        prov.setdefault("ndim", "user")
        prov.setdefault("output_prefix", "user")
        for name, default in _SIMSPEC_DEFAULTS.items():
            if getattr(self, name) is None:
                prov.setdefault(name, "default")
                setattr(self, name, default(self.ndim) if callable(default) else default)
            else:
                prov.setdefault(name, "user")
        self.provenance = prov
        for name, kind in SIMSPEC_FIELDS:
            cast = _SIMSPEC_CASTS.get(kind)
            if cast is not None:
                setattr(self, name, cast(getattr(self, name)))
        self._validate()

    def _validate(self):
        if self.chain_size < 1:
            raise UsageError(f"chain_size must be positive, got {self.chain_size}")
        if not 0 <= self.seed <= MASK64:
            raise UsageError("seed must be a 64-bit unsigned integer")
        if self.start_point.size != self.ndim:
            raise UsageError(
                f"start_point has {self.start_point.size} coordinates, expected {self.ndim}"
            )
        if not np.all(np.isfinite(self.start_point)):
            raise UsageError("start_point coordinates must be finite")
        if self.chain_format not in CHAIN_FORMATS:
            raise UsageError(f"chain_format must be one of {CHAIN_FORMATS}")
        if self.file_encoding not in FILE_ENCODINGS:
            raise UsageError(f"file_encoding must be one of {FILE_ENCODINGS}")
        if self.adaptation_period < 1:
            raise UsageError("adaptation_period must be positive")
        if self.greedy_adaptation_count < 0:
            raise UsageError("greedy_adaptation_count must be nonnegative")
        if not 0 <= self.dr_stage_count <= MAX_DR_STAGES:
            raise UsageError(f"dr_stage_count must lie in [0, {MAX_DR_STAGES}]")
        if not 0.0 < self.dr_scale_factor < 1.0:
            raise UsageError("dr_scale_factor must lie strictly in (0, 1)")
        if self.proposal_scale <= 0:
            raise UsageError("proposal_scale must be positive")
        if self.cov_epsilon <= 0:
            raise UsageError("cov_epsilon must be positive")
        if self.parallelism not in PARALLELISM_MODES:
            raise UsageError(f"parallelism must be one of {PARALLELISM_MODES}")
        if self.num_workers < 1:
            raise UsageError("num_workers must be positive")
        if self.target_acceptance_window is not None:
            lo, hi = self.target_acceptance_window
            if not (0.0 < lo < hi < 1.0):
                raise UsageError(
                    "target_acceptance_window must be a pair 0 < lo < hi < 1"
                )
            self.target_acceptance_window = (float(lo), float(hi))

    def __eq__(self, other):
        if not isinstance(other, SimSpec):
            return NotImplemented
        return not self.mismatched_fields(other)

    def with_updates(self, **changes) -> "SimSpec":
        """Copy with the given fields replaced (provenance marked user)."""
        prov = dict(self.provenance)
        for name in changes:
            prov[name] = "user"
        return replace(self, provenance=prov, **changes)

    def mismatched_fields(self, other: "SimSpec") -> list[str]:
        names = []
        for name, _ in SIMSPEC_FIELDS:
            a, b = getattr(self, name), getattr(other, name)
            same = np.array_equal(a, b) if name == "start_point" else a == b
            if not same:
                names.append(name)
        return names
