import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dramforge as df
from dramforge import BuiltinTarget, SimSpec, UsageError, build_target
from dramforge.core import SplitMix64


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
