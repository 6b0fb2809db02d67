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


_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_GAMMA64 = np.uint64(GOLDEN_GAMMA)

# Raw draws generated per block: the first block of a stream is small, so
# short-lived streams (fork-join ranks, copies) stay cheap, and each refill
# doubles the size up to the cap.
_BLOCK_FIRST = 16
_BLOCK_CAP = 1024


def _mix64(z: np.ndarray) -> np.ndarray:
    """SplitMix64 output function over a uint64 array (wraps mod 2**64)."""
    z = (z ^ (z >> np.uint64(30))) * _MIX1
    z = (z ^ (z >> np.uint64(27))) * _MIX2
    return z ^ (z >> np.uint64(31))


class SplitMix64:
    """SplitMix64 stream with Box-Muller Gaussian deviates.

    ``stream_id`` selects a decorrelated substream of the same seed, used
    to give every worker rank its own reproducible sequence. The second
    Box-Muller deviate is cached so Gaussian draws consume a fixed number
    of raw outputs; the cache is part of the serialized state.

    Raw draws and uniforms are served from a block computed ahead in one
    vectorized pass. The ``state += gamma`` recurrence is a counter, so a
    block is a pure function of the position it starts at, and every draw
    is bitwise the one the scalar recurrence gives. ``state`` is the
    position of the last draw consumed; the block is never serialized.

    A *slot* is what one delayed-rejection stage attempt draws: ``ndim``
    ``gauss()`` deviates, then one ``uniform()``. ``peek_slots`` computes
    the next slots in one pass without consuming them, and
    ``advance_slots`` consumes them. ``tape`` is free for a consumer to
    hang values derived from the slots it peeked; the stream drops it
    whenever its next draws may no longer be those slots: on
    ``setstate`` (so on ``copy``) and on any scalar draw.
    """

    __slots__ = ("stream_id", "gauss_cache", "tape", "_base", "_pos", "_len", "_next",
                 "_raw", "_u", "_plan", "_slot")

    def __init__(self, seed: int, stream_id: int = 0):
        if not 0 <= seed <= MASK64:
            raise UsageError(f"seed must be a 64-bit unsigned integer, got {seed}")
        if not 0 <= stream_id <= MASK64:
            raise UsageError(f"stream_id must be a 64-bit unsigned integer, got {stream_id}")
        self.state = (seed ^ ((stream_id * GOLDEN_GAMMA) & MASK64)) & MASK64
        self.stream_id = stream_id
        self.gauss_cache: float | None = None

    @property
    def state(self) -> int:
        return (self._base + self._pos * GOLDEN_GAMMA) & MASK64

    @state.setter
    def state(self, value: int) -> None:
        self._base = value
        self._pos = self._len = 0
        self._next = _BLOCK_FIRST
        self._raw = self._u = None
        self._plan = self.tape = None

    def _raws(self, base: int, size: int) -> np.ndarray:
        """Raw draws 1..size after position ``base``."""
        steps = np.arange(1, size + 1, dtype=np.uint64)
        return _mix64(steps * _GAMMA64 + np.uint64(base))

    def _refill(self) -> None:
        """Start a new block of raw draws and their uniforms at the current state."""
        base = self.state
        size = self._next
        self._next = min(2 * size, _BLOCK_CAP)
        raw = self._raws(base, size)
        self._base, self._pos, self._len = base, 0, size
        self._raw = raw
        # Exact: a 53-bit integer times a power of two.
        self._u = ((raw >> np.uint64(11)).astype(float) * _INV_2POW53).tolist()
        self._plan = self.tape = None

    def next_uint64(self) -> int:
        pos = self._pos
        if pos >= self._len:
            self._refill()
            pos = 0
        self._pos = pos + 1
        return int(self._raw[pos])

    def uniform(self) -> float:
        """Next deviate in [0, 1), from the top 53 bits of the stream."""
        # Top-53-bit truncation keeps the result strictly below 1.0, which
        # a rounded 64-bit division would not.
        pos = self._pos
        if pos >= self._len:
            self._refill()
            pos = 0
        self._pos = pos + 1
        return self._u[pos]

    def gauss(self) -> float:
        """Next standard normal deviate (Box-Muller, no rejection loop)."""
        if self.gauss_cache is not None:
            g = self.gauss_cache
            self.gauss_cache = None
            self._plan = self.tape = None
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

    def peek_slots(self, k: int, ndim: int) -> tuple[np.ndarray, np.ndarray]:
        """The next ``k`` slots, computed in one pass and not consumed.

        Returns ``z`` of shape ``(k, ndim)``, the Gaussians ``gauss()``
        would give slot by slot, and ``logu`` of shape ``(k,)``, the log of
        each slot's ``uniform()`` (``-inf`` for a uniform of 0). Every value
        is bitwise the scalar one: the uniforms are exact, and ``log``,
        ``cos`` and ``sin`` are libm's, called per value.
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
        raw = self._raws(base, int(after[-1]))
        u = (raw >> np.uint64(11)).astype(float) * _INV_2POW53
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
        # Serve the draws from this plan: the raw block is dropped, so a
        # scalar draw refills at the current state and ends the plan.
        self._base, self._pos, self._len = base, 0, 0
        self._raw = self._u = None
        self._plan, self._slot = (ndim, after.tolist(), caches), 0
        return g[: k * ndim].reshape(k, ndim), _logs(u[after[1:] - 1].tolist())

    def advance_slots(self, n: int, ndim: int) -> None:
        """Consume ``n`` slots: ``state`` and ``gauss_cache`` end where
        ``n`` rounds of ``ndim`` ``gauss()`` calls and one ``uniform()``
        leave them. Within the last ``peek_slots`` this is O(1).
        """
        plan = self._plan
        if plan is None or plan[0] != ndim or self._slot + n >= len(plan[1]):
            self.peek_slots(n, ndim)
            plan = self._plan
        j = self._slot + n
        self._slot = j
        self._pos = plan[1][j]
        self.gauss_cache = plan[2][j]

    def getstate(self) -> tuple[int, int, float | None]:
        return (self.state, self.stream_id, self.gauss_cache)

    def setstate(self, state: tuple[int, int, float | None]) -> None:
        self.state, self.stream_id, self.gauss_cache = state

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
    ``NumericalError`` at the start point or at any delayed-rejection stage.
    """

    __slots__ = ("ndim", "log_density")

    def __init__(self, ndim: int, log_density):
        if ndim < 1:
            raise UsageError(f"ndim must be positive, got {ndim}")
        self.ndim = int(ndim)
        self.log_density = log_density

    def __call__(self, point: np.ndarray) -> float:
        return float(self.log_density(point))


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

    if identity:
        def log_density(x):
            d = x - mean
            return -0.5 * float(d @ d)
    else:
        def log_density(x):
            d = x - mean
            return -0.5 * float(d @ (prec @ d))

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
        return -float(scale * (a @ a) + b @ b)

    return TargetDensity(ndim, log_density)


def mixture_target(weights, means, covs) -> TargetDensity:
    """Gaussian mixture log-density with fully normalized components.

    Component means and precisions are stacked once, so a call is one
    vectorized quadratic form over all components plus a max-shifted
    log-sum-exp.
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
    precs, lognorms = [], []
    for m, c in zip(means, covs):
        if m.size != ndim:
            raise UsageError("mixture component dimensions disagree")
        c = _check_spd(c, "mixture component")
        precs.append(np.linalg.inv(c))
        sign, logdet = np.linalg.slogdet(c)
        lognorms.append(-0.5 * (ndim * math.log(TWO_PI) + logdet))
    means = np.stack(means)
    precs = np.stack(precs)
    offsets = np.log(weights) + np.asarray(lognorms)

    def log_density(x):
        d = x - means
        terms = offsets - 0.5 * np.einsum("ki,kij,kj->k", d, precs, d)
        peak = terms.max()
        if peak == -math.inf:
            return -math.inf
        return float(peak + math.log(np.exp(terms - peak).sum()))

    return TargetDensity(ndim, log_density)


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
        if not 0 <= self.dr_stage_count <= 2:
            raise UsageError("dr_stage_count must be 0, 1, or 2 (maximum supported 2)")
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
