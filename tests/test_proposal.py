import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from dramforge import NumericalError, proposal
from dramforge.core import SplitMix64
from dramforge.proposal import (
    EPS_FLOOR,
    KernelTape,
    ProposalState,
    adaptation_measure,
    effective_cov,
    factorize,
    initial_proposal,
    log_kernel,
    propose,
    update_mean_cov,
)
from test_rng import advance_slots


def fresh(ndim=2, scale=1.0, eps_rel=1e-12):
    return initial_proposal(ndim, scale, eps_rel)


def per_point_update(state, batch):
    """Reference absorption: ``per_point_stats``, factorized."""
    return factorize(per_point_stats(state, batch))


def per_point_stats(state, batch):
    """Reference statistics: the mean and the scatter folded one point at a time.

    ``batch`` is a sequence of ``(point, weight)`` pairs. Each point adds
    ``w * (count_old / count) * outer(d, d)`` to the scatter in place, in
    point order; ``update_mean_cov`` must give these bits.
    """
    mean = state.mean.copy()
    scatter = state.scatter.copy()
    count = state.sample_count
    for point, weight in batch:
        w = float(weight)
        count += int(weight)
        delta = point - mean
        mean += (w / count) * delta
        coeff = w * (count - int(weight)) / count if count > int(weight) else 0.0
        if coeff != 0.0:
            scatter += coeff * (delta[:, None] * delta)
    cov = scatter / (count - 1) if count >= 2 else np.zeros_like(scatter)
    epsilon = max(state.eps_rel * np.trace(cov) / state.ndim, EPS_FLOOR)
    return replace(state, mean=mean, scatter=scatter, cov=cov, epsilon=epsilon,
                   sample_count=count)


class _ZeroRng:
    def gauss(self):
        return 0.0

    def gauss_vector(self, n):
        return np.array([self.gauss() for _ in range(n)])


class _SequenceRng:
    def __init__(self, values):
        self.values = list(values)
        self.consumed = 0

    def gauss(self):
        self.consumed += 1
        return self.values.pop(0)

    def gauss_vector(self, n):
        return np.array([self.gauss() for _ in range(n)])


class TestUpdateMeanCov:
    def test_single_point_from_empty(self):
        state = fresh(3)
        x = np.array([1.0, -2.0, 0.5])
        new = update_mean_cov(state, x[None, :], [1])
        assert np.array_equal(new.mean, x)
        assert np.array_equal(new.cov, np.zeros((3, 3)))
        assert new.sample_count == 1
        # epsilon carries the factorization of the zero matrix
        assert np.all(np.isfinite(new.chol_lower))

    def test_matches_two_pass_covariance(self):
        # 4 unit basis vectors, 2 copies each
        basis = [np.eye(4)[i] for i in range(4)]
        new = update_mean_cov(fresh(4), np.array(basis), [2] * 4)
        expanded = np.repeat(np.array(basis), 2, axis=0)
        assert np.allclose(new.mean, expanded.mean(axis=0), rtol=1e-13, atol=0)
        assert np.allclose(new.cov, np.cov(expanded.T, ddof=1), rtol=1e-12, atol=1e-15)

    def test_weighted_matches_numpy_fweights(self):
        rng = np.random.default_rng(5)
        points = rng.normal(0, 2, (12, 3))
        weights = rng.integers(1, 7, 12)
        new = update_mean_cov(fresh(3), points, weights)
        assert np.allclose(
            new.cov, np.cov(points.T, fweights=weights, ddof=1), rtol=1e-12, atol=1e-14
        )
        assert np.allclose(
            new.mean, np.average(points, axis=0, weights=weights), rtol=1e-13, atol=0
        )

    def test_split_batches_bitwise_equal(self):
        rng = np.random.default_rng(11)
        points = rng.normal(0, 1, (10, 2))
        weights = rng.integers(1, 4, 10)
        at_once = update_mean_cov(fresh(2), points, weights)
        halves = update_mean_cov(update_mean_cov(fresh(2), points[:5], weights[:5]),
                                 points[5:], weights[5:])
        assert np.array_equal(at_once.mean, halves.mean)
        assert np.array_equal(at_once.cov, halves.cov)
        assert at_once.sample_count == halves.sample_count

    def test_empty_batch_rejected(self):
        with pytest.raises(NumericalError):
            update_mean_cov(fresh(2), np.empty((0, 2)), [])

    def test_one_weight_per_point_required(self):
        with pytest.raises(NumericalError):
            update_mean_cov(fresh(2), np.zeros((3, 2)), [1, 1])

    @staticmethod
    def _assert_bitwise_equal(got, want):
        for name in ("mean", "scatter", "cov", "chol_lower", "chol_inv"):
            assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), name
        for name in ("chol_logdet", "epsilon", "sample_count"):
            assert getattr(got, name) == getattr(want, name), name

    @pytest.mark.parametrize("with_history", [False, True])
    def test_bitwise_equal_to_per_point_fold(self, with_history):
        rng = np.random.default_rng(2024 + with_history)
        for trial in range(60):
            ndim = int(rng.integers(1, 21))
            n = int(rng.integers(1, 40))
            top = [2, 50, 10**6][trial % 3]
            state = fresh(ndim, scale=2.38 / math.sqrt(ndim))
            if with_history:
                past = rng.normal(0, 3, (int(rng.integers(1, 30)), ndim))
                past_weights = rng.integers(1, top + 1, past.shape[0])
                state = per_point_update(state, list(zip(past, past_weights)))
            points = rng.normal(rng.normal(0, 5, ndim), rng.uniform(0.1, 4), (n, ndim))
            weights = rng.integers(1, top + 1, n)
            self._assert_bitwise_equal(update_mean_cov(state, points, weights),
                                       per_point_update(state, list(zip(points, weights))))

    @pytest.mark.parametrize("kind", ["signed_zeros", "subnormal", "huge"])
    def test_extreme_points_bitwise_equal_to_per_point_fold(self, kind, monkeypatch):
        # Signed zeros, subnormals and points at the 1e300 scale, whose
        # scatter overflows to inf and nan. The statistics are compared
        # before factorization, which fails on a non-finite covariance.
        monkeypatch.setattr(proposal, "factorize", lambda state: state)
        rng = np.random.default_rng(77)
        tiny = np.array([0.0, 5e-324, -5e-324, 2.0**-1074 * 3, 2.0**-1022, -2.0**-1023])
        for trial in range(30):
            ndim = int(rng.integers(1, 6))
            n = int(rng.integers(1, 30))
            if kind == "signed_zeros":
                points = rng.choice([0.0, -0.0], (n, ndim))
                points[rng.random((n, ndim)) < 0.2] = 1.0
            elif kind == "subnormal":
                points = rng.choice(tiny, (n, ndim)) * rng.integers(1, 5, (n, ndim))
            else:
                points = rng.normal(0, 1, (n, ndim)) * 1e300
            weights = rng.integers(1, [2, 50, 10**6][trial % 3] + 1, n)
            state = fresh(ndim)
            with np.errstate(over="ignore", invalid="ignore"):
                if trial % 2:
                    state = per_point_stats(state, list(zip(points[::-1], weights[::-1])))
                got = update_mean_cov(state, points, weights)
                want = per_point_stats(state, list(zip(points, weights)))
            for name in ("mean", "scatter", "cov"):
                assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), name
            assert np.float64(got.epsilon).tobytes() == np.float64(want.epsilon).tobytes()
            assert got.sample_count == want.sample_count

    def test_one_row_from_empty_matches_per_point_fold(self):
        for ndim, weight in ((1, 1), (3, 7), (20, 10**6)):
            x = np.random.default_rng(ndim).normal(0, 1, ndim)
            self._assert_bitwise_equal(update_mean_cov(fresh(ndim), x[None, :], [weight]),
                                       per_point_update(fresh(ndim), [(x, weight)]))


class TestFactorize:
    def test_identity(self):
        state = fresh(3, scale=1.0)
        assert np.allclose(state.chol_lower, np.eye(3), atol=1e-6)

    def test_diagonal(self):
        state = fresh(2, scale=1.0, eps_rel=1e-300)
        state.cov = np.diag([4.0, 9.0])
        state.epsilon = 1e-300
        out = factorize(state)
        assert np.allclose(out.chol_lower, np.diag([2.0, 3.0]), rtol=1e-12)

    def test_random_spd_reconstruction(self):
        rng = np.random.default_rng(3)
        m = rng.normal(0, 1, (4, 4))
        state = fresh(4, scale=1.3)
        state.cov = m @ m.T
        out = factorize(state)
        recon = out.chol_lower @ out.chol_lower.T
        expect = out.scale**2 * out.cov + out.epsilon * np.eye(4)
        assert np.allclose(recon, expect, rtol=1e-10)

    def test_epsilon_inflation_on_roundoff_negative_eigenvalue(self):
        state = fresh(2)
        # Nearly singular with a ~5e-14 negative eigenvalue: the kind of
        # matrix accumulation roundoff actually produces.
        state.cov = np.array([[1.0, 1.0], [1.0, 1.0 - 1e-13]])
        state.epsilon = 1e-14
        out = factorize(state)
        assert out.epsilon > 1e-14  # inflated until the factorization held
        # Each doubling is counted.
        assert out.eps_inflations == math.log2(out.epsilon / 1e-14) > 0
        recon = out.chol_lower @ out.chol_lower.T
        assert np.allclose(recon, out.scale**2 * out.cov + out.epsilon * np.eye(2), rtol=1e-6)

    def test_unrecoverable_matrix_raises(self):
        state = fresh(2)
        # Grossly indefinite: ten epsilon doublings cannot rescue it.
        state.cov = np.array([[1.0, 2.0], [2.0, 1.0]])
        state.epsilon = 1e-12
        with pytest.raises(NumericalError):
            factorize(state)


class TestPropose:
    def test_zero_deviates_return_center(self):
        state = fresh(3)
        center = np.array([0.3, -0.7, 2.0])
        assert np.array_equal(propose(state, center, 0, _ZeroRng()), center)

    def test_unit_step_along_first_axis(self):
        state = fresh(4)
        center = np.zeros(4)
        out = propose(state, center, 0, _SequenceRng([1.0, 0.0, 0.0, 0.0]))
        assert np.allclose(out, np.eye(4)[0] * state.chol_lower[0, 0])

    def test_consumes_exactly_ndim_gaussians_per_stage(self):
        state = fresh(5)
        for stage in (0, 1, 2):
            rng = _SequenceRng([0.1] * 10)
            propose(state, np.zeros(5), stage, rng)
            assert rng.consumed == 5

    def test_dr_stage_shrinks_step(self):
        state = fresh(2, scale=1.0)
        step0 = propose(state, np.zeros(2), 0, _SequenceRng([1.0, 1.0]))
        step1 = propose(state, np.zeros(2), 1, _SequenceRng([1.0, 1.0]))
        assert np.allclose(step1, 0.5 * step0)

    def test_empirical_covariance_matches_effective(self):
        state = fresh(3, scale=0.8)
        state.cov = np.array([[2.0, 0.5, 0.0], [0.5, 1.0, 0.2], [0.0, 0.2, 0.7]])
        state = factorize(state)
        rng = SplitMix64(17)
        draws = np.array([propose(state, np.zeros(3), 0, rng) for _ in range(100_000)])
        emp = np.cov(draws.T, ddof=1)
        expect = effective_cov(state)
        frob = np.linalg.norm(emp - expect) / np.linalg.norm(expect)
        assert frob < 0.05


def gaussian_tv_quadrature_1d(m1, s1, m2, s2):
    """Numerically integrated total variation between two 1-D normals."""
    p = lambda x: math.exp(-0.5 * ((x - m1) / s1) ** 2) / (s1 * math.sqrt(2 * math.pi))
    q = lambda x: math.exp(-0.5 * ((x - m2) / s2) ** 2) / (s2 * math.sqrt(2 * math.pi))
    lo = min(m1 - 10 * s1, m2 - 10 * s2)
    hi = max(m1 + 10 * s1, m2 + 10 * s2)
    val, _ = quad(lambda x: abs(p(x) - q(x)), lo, hi, limit=400, epsabs=1e-11)
    return 0.5 * val


def gaussian_tv_grid_2d(m1, c1, m2, c2):
    """Grid total variation between two 2-D normals (Simpson-free midpoint)."""
    inv1, inv2 = np.linalg.inv(c1), np.linalg.inv(c2)
    det1, det2 = np.linalg.det(c1), np.linalg.det(c2)
    span = 8.0 * math.sqrt(max(np.max(np.diag(c1)), np.max(np.diag(c2))))
    center = (np.asarray(m1) + np.asarray(m2)) / 2
    n = 400
    xs = np.linspace(center[0] - span, center[0] + span, n)
    ys = np.linspace(center[1] - span, center[1] + span, n)
    dx = xs[1] - xs[0]
    dy = ys[1] - ys[0]
    gx, gy = np.meshgrid(xs, ys, indexing="ij")
    pts = np.stack([gx.ravel(), gy.ravel()], axis=1)
    d1 = pts - np.asarray(m1)
    d2 = pts - np.asarray(m2)
    p = np.exp(-0.5 * np.einsum("ni,ij,nj->n", d1, inv1, d1)) / (2 * math.pi * math.sqrt(det1))
    q = np.exp(-0.5 * np.einsum("ni,ij,nj->n", d2, inv2, d2)) / (2 * math.pi * math.sqrt(det2))
    return 0.5 * float(np.abs(p - q).sum() * dx * dy)


def state_with(mean, cov, eps=1e-12):
    mean = np.asarray(mean, dtype=float)
    cov = np.asarray(cov, dtype=float)
    ndim = mean.size
    state = ProposalState(
        mean=mean,
        scatter=np.zeros((ndim, ndim)),
        cov=cov,
        chol_lower=np.zeros((ndim, ndim)),
        chol_inv=np.zeros((ndim, ndim)),
        chol_logdet=0.0,
        scale=1.0,
        epsilon=eps,
        eps_rel=1e-12,
        dr_scale=0.5,
        sample_count=10,
        adaptation_count=0,
    )
    return factorize(state)


class TestAdaptationMeasure:
    def test_identical_states_give_zero(self):
        a = state_with([0.4, -1.0], [[2.0, 0.3], [0.3, 1.0]])
        b = state_with([0.4, -1.0], [[2.0, 0.3], [0.3, 1.0]])
        assert adaptation_measure(a, b) <= 1e-12

    def test_huge_mean_shift_saturates_at_one(self):
        a = state_with([0.0], [[1.0]])
        b = state_with([1e9], [[1.0]])
        assert adaptation_measure(a, b) == 1.0

    def test_known_1d_value(self):
        # N(0,1) vs N(0,4): BC = sqrt(2*1*2/5), measure = sqrt(1 - BC^2)
        a = state_with([0.0], [[1.0]], eps=1e-300)
        b = state_with([0.0], [[4.0]], eps=1e-300)
        expect = math.sqrt(1.0 - 4.0 / 5.0)
        got = adaptation_measure(a, b)
        assert got == pytest.approx(expect, abs=1e-12)
        tv = gaussian_tv_quadrature_1d(0.0, 1.0, 0.0, 2.0)
        assert got >= tv - 1e-9

    def test_symmetry(self):
        rng = np.random.default_rng(9)
        for _ in range(25):
            a = state_with(rng.normal(0, 2, 2), _random_spd(rng, 2))
            b = state_with(rng.normal(0, 2, 2), _random_spd(rng, 2))
            assert adaptation_measure(a, b) == pytest.approx(
                adaptation_measure(b, a), rel=1e-12, abs=1e-15
            )

    def test_upper_bounds_tv_random_1d_pairs(self):
        rng = np.random.default_rng(21)
        for _ in range(60):
            m1, m2 = rng.uniform(-2, 2, 2)
            s1, s2 = rng.uniform(0.4, 2.5, 2)
            a = state_with([m1], [[s1**2]], eps=1e-300)
            b = state_with([m2], [[s2**2]], eps=1e-300)
            tv = gaussian_tv_quadrature_1d(m1, s1, m2, s2)
            assert adaptation_measure(a, b) >= tv - 1e-9

    def test_bounded_in_unit_interval(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            a = state_with(rng.normal(0, 5, 3), _random_spd(rng, 3))
            b = state_with(rng.normal(0, 5, 3), _random_spd(rng, 3))
            assert 0.0 <= adaptation_measure(a, b) <= 1.0


def _random_spd(rng, ndim):
    m = rng.normal(0, 1, (ndim, ndim))
    return m @ m.T + 0.3 * np.eye(ndim)


def random_proposal(seed, ndim):
    rng = np.random.default_rng(seed)
    state = initial_proposal(ndim, 2.38 / math.sqrt(ndim), dr_scale=0.37)
    state.cov = _random_spd(rng, ndim)
    return factorize(state)


class TestKernelTape:
    """Tape steps and kernel terms are the one-slot propose/log_kernel values."""

    @pytest.mark.parametrize("ndim", range(1, 7))
    @pytest.mark.parametrize("cached", [False, True])
    def test_steps_and_kernel_terms_match_propose_and_log_kernel(self, ndim, cached):
        prop = random_proposal(ndim, ndim)
        rng = SplitMix64(2**63 + 5, 3)
        if cached:
            rng.gauss()
        mirror = rng.copy()
        tape = KernelTape.peek(prop, rng, 2, 20)
        assert tape.n == 20 and len(tape.logu) == 22
        x = np.linspace(-1.0, 2.0, ndim)
        for s in range(22):
            # Slot s at every stage: the same Gaussians, scaled per stage.
            # Stage j's step on slot s belongs to the attempt starting at s - j.
            at_slot = mirror.getstate()
            for j in range(3):
                probe = SplitMix64.from_state(at_slot)
                want = propose(prop, x, j, probe)
                if 0 <= s - j < 20:
                    got = x + tape.ys[s - j][j]
                    assert got.tobytes() == want.tobytes()
            mirror = probe
            u = mirror.uniform()
            assert tape.logu[s] == (math.log(u) if u > 0.0 else -math.inf)
        for i in range(20):
            a, b, c = tape.ys[i]
            assert tape.k0_x_y1[i] == log_kernel(prop, a, 0)
            assert tape.k0_y2_y1[i] == log_kernel(prop, a - b, 0)
            assert tape.k0_y3_y2[i] == log_kernel(prop, b - c, 0)
            assert tape.k1_x_y2[i] == log_kernel(prop, b, 1)
            assert tape.k1_y3_y1[i] == log_kernel(prop, a - c, 1)
            # The same kernels at the differences of the candidates
            # themselves, as the DR algebra states them, up to rounding.
            y1, y2, y3 = x + a, x + b, x + c
            for got, delta, stage in (
                (tape.k0_x_y1[i], y1 - x, 0), (tape.k0_y2_y1[i], y1 - y2, 0),
                (tape.k0_y3_y2[i], y2 - y3, 0), (tape.k1_x_y2[i], y2 - x, 1),
                (tape.k1_y3_y1[i], y1 - y3, 1),
            ):
                assert got == pytest.approx(log_kernel(prop, delta, stage), rel=1e-12)

    def test_log_kernel_is_the_gaussian_log_density(self):
        prop = random_proposal(7, 3)
        delta = np.array([0.3, -1.2, 0.8])
        for stage in (0, 1, 2):
            cov = prop.dr_scale ** (2 * stage) * effective_cov(prop)
            want = -0.5 * (delta @ np.linalg.solve(cov, delta)
                           + np.linalg.slogdet(2 * math.pi * cov)[1])
            assert log_kernel(prop, delta, stage) == pytest.approx(want, rel=1e-12)

    @settings(max_examples=40, deadline=None)
    @given(
        ndim=st.integers(1, 6),
        stages=st.integers(0, 2),
        offset=st.integers(0, 30),
        sizes=st.lists(st.integers(1, 25), min_size=1, max_size=4),
    )
    def test_rows_do_not_depend_on_block(self, ndim, stages, offset, sizes):
        # A slot's step, log uniform and kernel terms are the same bits in
        # one long tape made at the start as in shorter tapes made later,
        # and in a tape rebased off a tape of another proposal.
        prop = random_proposal(ndim + 10, ndim)
        start = SplitMix64(11, 4)
        whole = KernelTape.peek(prop, start.copy(), stages, offset + sum(sizes) + 3 * len(sizes))
        rng = start.copy()
        advance_slots(rng, offset, ndim)
        at = offset
        for k in sizes:
            other = KernelTape.peek(random_proposal(1, ndim), rng, stages, k + 3)
            other.i = 3
            advance_slots(rng, 3, ndim)
            at += 3
            for tape in (KernelTape.peek(prop, rng.copy(), stages, k), other.rebased(prop)):
                assert tape.n == k
                assert tape.logu[:k] == whole.logu[at : at + k]
                assert tape.ys[:k].tobytes() == whole.ys[at : at + k].tobytes()
                for name in KERNEL_TERMS[: (0, 2, 5)[stages]]:
                    assert getattr(tape, name) == getattr(whole, name)[at : at + k]
            advance_slots(rng, k, ndim)
            at += k


KERNEL_TERMS = ("k0_x_y1", "k0_y2_y1", "k0_y3_y2", "k1_x_y2", "k1_y3_y1")
