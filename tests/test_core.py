import inspect
import math
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dramforge as df
from dramforge import BuiltinTarget, SimSpec, UsageError, build_target, cli
from dramforge.core import SplitMix64

MVN4_CFG = os.path.join(os.path.dirname(__file__), "..", "configs", "mvn4.cfg")


class TestEvalBuiltin:
    """Builtin target records, evaluated through ``build_target``."""

    def test_standard_mvn_at_origin_is_zero(self):
        target = BuiltinTarget("mvn", {"mean": np.zeros(4), "cov": np.eye(4)})
        assert build_target(target)(np.zeros(4)) == 0.0

    def test_standard_mvn_at_ones(self):
        target = BuiltinTarget("mvn", {"mean": np.zeros(4), "cov": np.eye(4)})
        assert build_target(target)(np.ones(4)) == -2.0

    def test_mvn_matches_quadratic_form(self):
        rng = np.random.default_rng(0)
        m = rng.normal(0, 1, 3)
        a = rng.normal(0, 1, (3, 3))
        cov = a @ a.T + 3 * np.eye(3)
        target = BuiltinTarget("mvn", {"mean": m, "cov": cov})
        x = rng.normal(0, 1, 3)
        d = x - m
        expect = -0.5 * d @ np.linalg.inv(cov) @ d
        assert build_target(target)(x) == pytest.approx(expect, rel=1e-12)

    def test_mixture_of_two_unit_gaussians(self):
        mu = 1.5
        target = BuiltinTarget(
            "gauss_mixture",
            {
                "weights": [0.5, 0.5],
                "means": [np.array([mu]), np.array([-mu])],
                "covs": [np.eye(1), np.eye(1)],
            },
        )
        # Oracle: average the two normalized densities directly.
        phi = lambda v: math.exp(-0.5 * v * v) / math.sqrt(2 * math.pi)
        expect = math.log(0.5 * phi(-mu) + 0.5 * phi(mu))
        assert build_target(target)(np.zeros(1)) == pytest.approx(expect, rel=1e-12)

    def test_mixture_matches_per_component_oracle(self):
        # Full covariances and unequal weights, far points included: the
        # stacked evaluation must agree with a per-component log-sum-exp.
        rng = np.random.default_rng(16)
        ndim, k = 3, 5
        weights = rng.uniform(0.5, 2.0, k)
        weights /= weights.sum()
        means = rng.normal(0, 3, (k, ndim))
        covs = []
        for _ in range(k):
            a = rng.normal(0, 1, (ndim, ndim))
            covs.append(a @ a.T + np.eye(ndim))
        target = df.mixture_target(weights, list(means), covs)
        for scale in (0.5, 5.0, 200.0):
            x = rng.normal(0, scale, ndim)
            terms = [
                math.log(w) - 0.5 * (ndim * math.log(2 * math.pi)
                                     + np.linalg.slogdet(c)[1])
                - 0.5 * float((x - m) @ np.linalg.solve(c, x - m))
                for w, m, c in zip(weights, means, covs)
            ]
            peak = max(terms)
            expect = peak + math.log(sum(math.exp(t - peak) for t in terms))
            assert target(x) == pytest.approx(expect, rel=1e-12, abs=1e-12)

    def test_mvn_permutation_invariance(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            ndim = int(rng.integers(2, 5))
            mean = rng.normal(0, 1, ndim)
            a = rng.normal(0, 1, (ndim, ndim))
            cov = a @ a.T + ndim * np.eye(ndim)
            x = rng.normal(0, 1, ndim)
            perm = rng.permutation(ndim)
            base = build_target(BuiltinTarget("mvn", {"mean": mean, "cov": cov}))(x)
            permuted = build_target(
                BuiltinTarget("mvn", {"mean": mean[perm], "cov": cov[np.ix_(perm, perm)]}),
            )(x[perm])
            assert permuted == pytest.approx(base, rel=1e-10, abs=1e-12)

    def test_rosenbrock_minimum_at_ones(self):
        target = BuiltinTarget("rosenbrock", {"ndim": 2, "scale": 100.0})
        assert build_target(target)(np.ones(2)) == 0.0
        assert build_target(target)(np.array([1.1, 0.9])) < 0.0

    def test_mixture_weights_must_sum_to_one(self):
        bad = BuiltinTarget(
            "gauss_mixture",
            {"weights": [0.6, 0.6], "means": [np.zeros(1), np.ones(1)],
             "covs": [np.eye(1), np.eye(1)]},
        )
        with pytest.raises(UsageError):
            build_target(bad)

    def test_unknown_kind_rejected(self):
        with pytest.raises(UsageError):
            BuiltinTarget("cauchy", {})

    @pytest.mark.parametrize("sizes, named", [
        ((2, 2, 2), "component 1"),  # every covariance 2x2 at ndim 4
        ((4, 2, 4), "component 2"),  # one 2x2 among 4x4 ones
    ])
    def test_mixture_covariance_size_must_match_means(self, sizes, named):
        covs = [np.eye(n) for n in sizes]
        with pytest.raises(UsageError, match=f"{named} covariance is .* 4 coordinates"):
            df.mixture_target([0.25, 0.25, 0.5], [np.zeros(4)] * 3, covs)

    def test_mixture_mean_size_names_the_component(self):
        with pytest.raises(UsageError, match="component 3 mean"):
            df.mixture_target([0.5, 0.25, 0.25], [np.zeros(2), np.ones(2), np.ones(3)],
                              [np.eye(2)] * 3)


def _bits(values):
    # Exact bits, but any NaN for a NaN: the sampler rejects them all alike.
    return [v.hex() if v == v else "nan" for v in map(float, values)]


class TestTargetBatch:
    """A 2-D call gives each row's scalar value, bit for bit."""

    @settings(max_examples=300, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        m=st.integers(1, 3),
        k=st.integers(1, 16),
        ndim=st.integers(1, 6),
        spd=st.booleans(),
        scale=st.sampled_from([0.3, 3.0, 40.0, 1e200]),
    )
    def test_mixture_batch_rows_are_the_scalar_values(self, seed, m, k, ndim, spd, scale):
        # scale 1e200 overflows every quadratic form, to +inf with identity
        # covariances and to NaN or -inf with full ones: every component,
        # so the value, is -inf in both forms.
        rng = np.random.default_rng(seed)
        weights = rng.uniform(0.2, 1.0, k)
        means = rng.normal(0, 3, (k, ndim))
        covs = []
        for _ in range(k):
            a = rng.normal(0, 1, (ndim, ndim))
            covs.append(a @ a.T + 0.3 * np.eye(ndim) if spd else np.eye(ndim))
        target = df.mixture_target(weights / weights.sum(), list(means), covs)
        points = rng.normal(0, scale, (m, ndim))
        scalar = [target(p) for p in points]
        assert (target.batch is None) == (k == 1)
        assert _bits(target(points)) == _bits(scalar)
        if scale == 1e200:
            assert scalar == [-math.inf] * m

    def test_scalar_only_target_loops_over_rows(self):
        target = df.TargetDensity(2, lambda x: -float(sum(v * v for v in x)))
        points = np.arange(6.0).reshape(3, 2)
        assert target.batch is None
        assert target(points) == [target(p) for p in points] == [-1.0, -13.0, -41.0]
        assert target([1.0, 2.0]) == target((1.0, 2.0)) == -5.0

    def test_batch_must_give_one_value_per_row(self):
        target = df.TargetDensity(2, lambda x: 0.0, batch=lambda points: [0.0])
        with pytest.raises(UsageError, match="1 values for 2 points"):
            target(np.zeros((2, 2)))


class TestOverflowedQuadraticForm:
    """Far out, a full covariance's quadratic form overflows to NaN or -inf;
    the density there is 0."""

    def test_far_points_have_log_density_minus_inf(self):
        rng = np.random.default_rng(5)
        a = rng.normal(0, 1, (2, 2))
        cov = a @ a.T + 0.3 * np.eye(2)
        points = rng.normal(0, 1e200, (400, 2))
        mixture = df.mixture_target([0.5, 0.5], [np.zeros(2), np.ones(2)], [cov, np.eye(2)])
        mvn = df.mvn_target(np.zeros(2), cov)
        with np.errstate(over="ignore", invalid="ignore"):
            # The quadratic form overflows to NaN or -inf at some of them.
            prec = np.linalg.inv(cov)
            forms = [float(p @ (prec @ p)) for p in points]
            assert sum(not q > -math.inf for q in forms) > 10
            assert [mvn(p) for p in points] == [-math.inf] * 400
            assert [mixture(p) for p in points] == [-math.inf] * 400
            assert mixture(points) == [-math.inf] * 400

    def test_finite_rows_keep_their_values(self):
        # One overflowed row among finite ones: the batch takes the guarded
        # path, and each finite row keeps the scalar form's bits.
        rng = np.random.default_rng(6)
        covs = []
        for _ in range(3):
            a = rng.normal(0, 1, (2, 2))
            covs.append(a @ a.T + 0.3 * np.eye(2))
        target = df.mixture_target([0.2, 0.3, 0.5], list(rng.normal(0, 2, (3, 2))), covs)
        points = np.array([[0.5, -1.0], [3e200, -2e200], [2.0, 1.0]])
        with np.errstate(over="ignore", invalid="ignore"):
            values = target(points)
            assert _bits(values) == _bits([target(p) for p in points])
        assert values[1] == -math.inf and all(math.isfinite(v) for v in values[::2])


# The builtin targets' bodies in their `@` forms, before mvn and rosenbrock
# made one ndarray.dot per product: test-only oracles.
def _mvn_oracle(mean, cov):
    prec = np.linalg.inv(cov)
    if np.array_equal(cov, np.eye(len(mean))):
        def log_density(x):
            d = x - mean
            return -0.5 * float(d @ d)
    else:
        def log_density(x):
            d = x - mean
            q = float(d @ (prec @ d))
            return -0.5 * q if q > -math.inf else -math.inf
    return log_density


def _rosenbrock_oracle(scale):
    def log_density(x):
        a = x[1:] - x[:-1] ** 2
        b = 1.0 - x[:-1]
        return -float(scale * (a @ a) + b @ b)
    return log_density


def _mixture_oracles(weights, means, covs):
    ndim = len(means[0])
    precs = np.stack([np.linalg.inv(c) for c in covs])
    lognorms = [-0.5 * (ndim * math.log(2.0 * math.pi) + np.linalg.slogdet(c)[1]) for c in covs]
    means = np.stack(means)
    offsets = np.log(weights) + np.asarray(lognorms)

    def log_density(x):
        d = x - means
        terms = offsets - 0.5 * np.einsum("ki,kij,kj->k", d, precs, d)
        peak = terms.max()
        if not peak < math.inf:
            terms = np.where(terms < math.inf, terms, -math.inf)
            peak = terms.max()
        if peak == -math.inf:
            return -math.inf
        return float(peak + math.log(np.exp(terms - peak).sum()))

    def batch(points):
        d = points[:, None, :] - means
        terms = offsets - 0.5 * np.einsum("mki,kij,mkj->mk", d, precs, d)
        peak = np.maximum.reduce(terms, axis=1)
        peaks = peak.tolist()
        if not sum(peaks) < math.inf:
            terms = np.where(terms < math.inf, terms, -math.inf)
            peak = np.maximum.reduce(terms, axis=1)
            peaks = peak.tolist()
        if -math.inf in peaks:
            peak[peak == -math.inf] = 0.0
        sums = np.add.reduce(np.exp(terms - peak[:, None]), axis=1).tolist()
        return [p if p == -math.inf else p + math.log(s) for p, s in zip(peaks, sums)]

    return log_density, batch


def _outcome(f, x):
    """``f(x)`` as bits (a list for a batch), or the name of what it raised."""
    try:
        with np.errstate(all="ignore"):
            value = f(x)
    except Exception as exc:  # rosenbrock cannot slice a list, before and after
        return type(exc).__name__
    return _bits(value if isinstance(value, list) else [value])


def _layout(values, layout, rng):
    """``values`` as the sampler would not pass them: ints, a list, or strided."""
    if layout == "int":
        return rng.integers(-4, 5, values.shape)
    if layout == "list":
        return values.tolist()
    if layout == "strided":
        buf = np.full(values.shape[:-1] + (2 * values.shape[-1],), 7.0)
        buf[..., ::2] = values
        return buf[..., ::2]
    return values


_oracle_cases = dict(
    seed=st.integers(0, 2**32 - 1),
    ndim=st.integers(1, 20),
    spd=st.booleans(),
    layout=st.sampled_from(["float64", "int", "list", "strided"]),
    where=st.sampled_from(["near", "far", "nan", "zero"]),
)


def _mean(rng, ndim):
    """All +0.0, all +0.0 but some -0.0, or a mix of +-0.0 and nonzero entries."""
    kind = rng.integers(3)
    pool = [[0.0], [0.0, -0.0], [0.0, -0.0, 1.5, -0.25, 3.0]][kind]
    return rng.choice(pool, ndim)


def _cov(rng, ndim, spd):
    a = rng.normal(0, 1, (ndim, ndim))
    return a @ a.T + 0.3 * np.eye(ndim) if spd else np.eye(ndim)


def _points(rng, shape, where):
    if where == "zero":  # +0.0 and -0.0 entries
        return rng.choice([0.0, -0.0], shape)
    points = rng.normal(0, 1e200 if where == "far" else 2.0, shape)
    if where == "nan":
        points[..., rng.integers(shape[-1])] = math.nan
    return points


class TestBuiltinsMatchTheirOracles:
    """Each builtin target gives its oracle's bits (any NaN for a NaN)."""

    @settings(max_examples=400, deadline=None)
    @given(**_oracle_cases)
    def test_mvn(self, seed, ndim, spd, layout, where):
        rng = np.random.default_rng(seed)
        mean, cov = _mean(rng, ndim), _cov(rng, ndim, spd)
        x = _layout(_points(rng, (ndim,), where), layout, rng)
        assert _outcome(df.mvn_target(mean, cov), x) == _outcome(_mvn_oracle(mean, cov), x)

    @settings(max_examples=300, deadline=None)
    @given(**_oracle_cases)
    def test_rosenbrock(self, seed, ndim, spd, layout, where):
        rng = np.random.default_rng(seed)
        ndim, scale = max(ndim, 2), [100.0, 1.0, 0.3][seed % 3]
        x = _layout(_points(rng, (ndim,), where), layout, rng)
        assert _outcome(df.rosenbrock_target(ndim, scale), x) == \
            _outcome(_rosenbrock_oracle(scale), x)

    @settings(max_examples=300, deadline=None)
    @given(**_oracle_cases, k=st.integers(1, 4), m=st.integers(1, 3))
    def test_mixture(self, seed, ndim, spd, layout, where, k, m):
        rng = np.random.default_rng(seed)
        weights = rng.uniform(0.2, 1.0, k)
        weights /= weights.sum()
        means = [_mean(rng, ndim) + rng.normal(0, 2, ndim) for _ in range(k)]
        covs = [_cov(rng, ndim, spd) for _ in range(k)]
        target = df.mixture_target(weights, means, covs)
        scalar, batch = _mixture_oracles(weights, means, covs)
        points = _points(rng, (m, ndim), where)
        x = _layout(points[0], layout, rng)
        assert _outcome(target, x) == _outcome(scalar, x)
        if target.batch is not None and layout != "list":
            points = _layout(points, layout, rng)
            assert _outcome(target, points) == _outcome(batch, points)


def _per_component_build(weights, covs):
    """The precisions and log offsets of a mixture, one component at a time."""
    ndim = len(covs[0])
    precs = [np.linalg.inv(c) for c in covs]
    lognorms = [-0.5 * (ndim * math.log(2.0 * math.pi) + np.linalg.slogdet(c)[1]) for c in covs]
    return np.stack(precs), np.log(weights) + np.asarray(lognorms)


class TestMixtureBuild:
    """The components are checked and factorized as one stack."""

    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), k=st.integers(2, 16), ndim=st.integers(1, 6),
           kinds=st.sampled_from(["identity", "spd", "both"]))
    def test_stacked_values_are_the_per_component_bits(self, seed, k, ndim, kinds):
        rng = np.random.default_rng(seed)
        weights = rng.uniform(0.2, 1.0, k)
        weights /= weights.sum()
        means = [rng.normal(0, 2, ndim) for _ in range(k)]
        spd = {"identity": [False] * k, "spd": [True] * k,
               "both": rng.integers(0, 2, k).astype(bool).tolist()}[kinds]
        covs = [_cov(rng, ndim, s) for s in spd]
        built = inspect.getclosurevars(df.mixture_target(weights, means, covs).log_density)
        precs, offsets = _per_component_build(weights, covs)
        assert built.nonlocals["precs"].tobytes() == precs.tobytes()
        assert built.nonlocals["offsets"].tobytes() == offsets.tobytes()
        assert built.nonlocals["means"].tobytes() == np.stack(means).tobytes()

    @pytest.mark.parametrize("k", [2, 4])
    @pytest.mark.parametrize("fault, message", [
        ("asymmetric", "symmetric"), ("indefinite", "positive definite"),
    ])
    def test_a_later_bad_component_is_named(self, k, fault, message):
        covs = [np.eye(3) for _ in range(4)]
        covs[k - 1] = covs[k - 1].copy()
        if fault == "asymmetric":
            covs[k - 1][0, 2] = 0.5
        else:
            covs[k - 1][1, 1] = -1.0
        with pytest.raises(UsageError, match=f"^mixture component {k} covariance must be "
                                             f"{message}$"):
            df.mixture_target([0.25] * 4, [np.zeros(3)] * 4, covs)

    def test_the_first_fault_wins_across_kinds(self):
        # Component 1 is not positive definite and component 3's mean is
        # one coordinate short: component 1 is checked first.
        covs = [np.diag([1.0, -1.0]), np.eye(2), np.eye(2)]
        means = [np.zeros(2), np.ones(2), np.ones(1)]
        with pytest.raises(UsageError, match="^mixture component 1 covariance must be "
                                             "positive definite$"):
            df.mixture_target([0.5, 0.25, 0.25], means, covs)


_FULL_COV = [[2.0, 0.5, 0.1, 0.0], [0.5, 1.0, 0.2, 0.0],
             [0.1, 0.2, 1.5, 0.3], [0.0, 0.0, 0.3, 0.8]]


class TestBuiltinChainsMatchTheirOracles:
    """A 3,000-iteration run of configs/mvn4.cfg writes the same chain bytes
    with a 4-d builtin target as with a ``TargetDensity`` on its oracle."""

    @pytest.mark.parametrize("target_pairs, oracle", [
        (None, _mvn_oracle(np.zeros(4), np.eye(4))),
        ({"kind": "mvn", "mean": "1,-2,0.5,0",
          "cov": ";".join(",".join(map(str, row)) for row in _FULL_COV)},
         _mvn_oracle(np.array([1.0, -2.0, 0.5, 0.0]), np.array(_FULL_COV))),
        ({"kind": "rosenbrock"}, _rosenbrock_oracle(100.0)),
    ], ids=["mvn4_cfg", "mvn_full", "rosenbrock"])
    def test_chain_bytes(self, tmp_path, target_pairs, oracle):
        spec_pairs, cfg_target = cli.parse_config(MVN4_CFG)
        builtin = df.build_target(cli.build_cli_target(target_pairs or cfg_target, 4))
        chains = []
        for name, target in (("builtin", builtin), ("oracle", df.TargetDensity(4, oracle))):
            spec = cli.build_spec({**spec_pairs, "chain_size": "3000",
                                   "output_prefix": str(tmp_path / name)})
            with open(df.run_sampler(spec, target).paths["chain"], "rb") as fh:
                chains.append(fh.read())
        assert chains[0] == chains[1]


class TestPointLength:
    """A point or a batch row of another length than ndim is a UsageError,
    not a broadcast."""

    @pytest.mark.parametrize("target", [
        df.mvn_target(np.zeros(4)),
        df.mvn_target(np.ones(4), np.diag([1.0, 2.0, 3.0, 4.0])),
        df.rosenbrock_target(4),
        df.mixture_target([0.5, 0.5], [np.zeros(4), np.ones(4)], [np.eye(4)] * 2),
        df.TargetDensity(4, lambda x: 0.0),
    ])
    @pytest.mark.parametrize("length", [1, 2, 5])
    def test_point_and_batch_rows(self, target, length):
        with pytest.raises(UsageError, match=f"ndim 4, got a point of length {length}"):
            target(np.ones(length))
        with pytest.raises(UsageError, match=f"ndim 4, got a point of length {length}"):
            target([1.0] * length)
        with pytest.raises(UsageError, match=f"ndim 4, got a batch of rows of length {length}"):
            target(np.ones((3, length)))

    def test_right_length_in_any_sequence(self):
        target = df.mvn_target(np.zeros(4))
        assert target(np.ones(4)) == target([1, 1, 1, 1]) == target((1.0,) * 4) == -2.0
        assert target(np.ones((3, 4))) == [-2.0] * 3


class TestSimSpec:
    def test_defaults(self):
        spec = SimSpec(ndim=4, output_prefix="x")
        assert spec.proposal_scale == pytest.approx(2.38 / 2.0)
        assert spec.adaptation_period == 400
        assert spec.dr_stage_count == 1
        assert spec.dr_scale_factor == 0.5
        assert spec.chain_format == "compact"
        assert np.array_equal(spec.start_point, np.zeros(4))
        assert spec.provenance["proposal_scale"] == "default"
        assert spec.provenance["ndim"] == "user"

    def test_user_provenance(self):
        spec = SimSpec(ndim=2, output_prefix="x", seed=9)
        assert spec.provenance["seed"] == "user"

    def test_acceptance_window_provenance(self):
        omitted = SimSpec(ndim=2, output_prefix="x")
        given = SimSpec(ndim=2, output_prefix="x", target_acceptance_window=(0.2, 0.4))
        assert omitted.target_acceptance_window is None
        assert omitted.provenance["target_acceptance_window"] == "default"
        assert given.provenance["target_acceptance_window"] == "user"

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"ndim": 0},
            {"ndim": 2, "chain_size": 0},
            {"ndim": 2, "seed": -1},
            {"ndim": 2, "dr_stage_count": 3},
            {"ndim": 2, "dr_scale_factor": 1.0},
            {"ndim": 2, "proposal_scale": 0.0},
            {"ndim": 2, "chain_format": "tsv"},
            {"ndim": 2, "parallelism": "mpi"},
            {"ndim": 2, "num_workers": 0},
            {"ndim": 2, "start_point": [1.0, np.inf]},
            {"ndim": 2, "start_point": [1.0]},
            {"ndim": 2, "target_acceptance_window": (0.5, 0.2)},
        ],
    )
    def test_invalid_specs_rejected(self, kwargs):
        kwargs.setdefault("output_prefix", "x")
        with pytest.raises(UsageError):
            SimSpec(**kwargs)

    def test_empty_prefix_rejected(self):
        with pytest.raises(UsageError):
            SimSpec(ndim=2, output_prefix="")

    def test_equality_and_updates(self):
        a = SimSpec(ndim=3, output_prefix="p", seed=4)
        b = SimSpec(ndim=3, output_prefix="p", seed=4)
        assert a == b
        c = a.with_updates(seed=5)
        assert a != c
        assert a.mismatched_fields(c) == ["seed"]


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=(1 << 64) - 1),
    stream=st.integers(min_value=0, max_value=(1 << 64) - 1),
)
def test_uniform_always_in_unit_interval(seed, stream):
    rng = SplitMix64(seed, stream)
    for _ in range(50):
        assert 0.0 <= rng.uniform() < 1.0
