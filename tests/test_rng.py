import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dramforge import UsageError
from dramforge.core import SplitMix64

MASK = (1 << 64) - 1
GOLDEN = 0x9E3779B97F4A7C15


def reference_splitmix(seed, stream, n):
    """Independent transcription of the published SplitMix64 constants."""
    state = (seed ^ ((stream * GOLDEN) & MASK)) & MASK
    out = []
    for _ in range(n):
        state = (state + GOLDEN) & MASK
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK
        out.append(z ^ (z >> 31))
    return out


def test_matches_reference_sequence():
    rng = SplitMix64(12345, 3)
    got = [rng.next_uint64() for _ in range(50)]
    assert got == reference_splitmix(12345, 3, 50)


def test_same_inputs_bitwise_identical_states():
    a, b = SplitMix64(0, 0), SplitMix64(0, 0)
    assert a.getstate() == b.getstate()
    assert [a.uniform() for _ in range(100)] == [b.uniform() for _ in range(100)]


def test_streams_decorrelate_same_seed():
    ref0 = reference_splitmix(7, 0, 1)[0] >> 11
    ref1 = reference_splitmix(7, 1, 1)[0] >> 11
    assert ref0 != ref1
    assert SplitMix64(7, 0).uniform() != SplitMix64(7, 1).uniform()


def test_state_roundtrip_reproduces_future_draws():
    rng = SplitMix64(99, 2)
    for _ in range(17):
        rng.gauss()  # leave a deviate in the cache
    snapshot = rng.getstate()
    expect = [rng.uniform() for _ in range(500)] + [rng.gauss() for _ in range(500)]
    clone = SplitMix64.from_state(snapshot)
    got = [clone.uniform() for _ in range(500)] + [clone.gauss() for _ in range(500)]
    assert got == expect


def test_uniform_pure_function_of_state():
    rng = SplitMix64(4, 0)
    s = rng.getstate()
    first = rng.uniform()
    rng.setstate(s)
    assert rng.uniform() == first


def test_uniform_range_and_mean():
    rng = SplitMix64(1)
    draws = np.array([rng.uniform() for _ in range(1_000_000)])
    assert draws.min() >= 0.0 and draws.max() < 1.0
    assert abs(draws.mean() - 0.5) < 0.002


def test_gauss_cache_consumes_no_uniforms():
    rng = SplitMix64(8)
    rng.gauss()
    assert rng.gauss_cache is not None
    state_before = rng.state
    rng.gauss()  # served from cache
    assert rng.state == state_before
    assert rng.gauss_cache is None


def test_gauss_moments():
    rng = SplitMix64(2)
    draws = np.array([rng.gauss() for _ in range(1_000_000)])
    assert abs(draws.var() - 1.0) < 0.01
    assert abs(draws.mean()) < 0.005


def test_gauss_deterministic_across_instances():
    a = [SplitMix64(3, 1).gauss() for _ in range(1)]
    b = [SplitMix64(3, 1).gauss() for _ in range(1)]
    assert a == b


def test_bitwise_identical_across_processes():
    code = (
        "from dramforge.core import SplitMix64\n"
        "r = SplitMix64(20260808, 5)\n"
        "print(sum(r.next_uint64() for _ in range(10000)) & ((1 << 64) - 1))\n"
    )
    # The children import dramforge from this checkout's src, as this process does.
    src = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    runs = [
        subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
        for _ in range(2)
    ]
    assert runs[0].stdout == runs[1].stdout and runs[0].stdout.strip()


def test_seed_validation():
    with pytest.raises(UsageError):
        SplitMix64(-1)
    with pytest.raises(UsageError):
        SplitMix64(0, 1 << 64)


def test_gauss_finite_even_at_uniform_edge_cases():
    # Box-Muller with u1 = 0 must stay finite: log(1 - 0) = 0.
    rng = SplitMix64(0)
    rng_state = rng.getstate()
    for _ in range(10_000):
        assert math.isfinite(rng.gauss())
    rng.setstate(rng_state)


class ScalarSplitMix64:
    """Test oracle: SplitMix64 + Box-Muller one draw at a time, in Python ints and math.*."""

    def __init__(self, seed, stream=0):
        self.state = (seed ^ ((stream * GOLDEN) & MASK)) & MASK
        self.cache = None

    def next_uint64(self):
        self.state = (self.state + GOLDEN) & MASK
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK
        return z ^ (z >> 31)

    def uniform(self):
        return (self.next_uint64() >> 11) * (1.0 / (1 << 53))

    def gauss(self):
        if self.cache is not None:
            g, self.cache = self.cache, None
            return g
        u1 = self.uniform()
        u2 = self.uniform()
        r = math.sqrt(-2.0 * math.log(1.0 - u1))
        theta = 2.0 * math.pi * u2
        self.cache = r * math.sin(theta)
        return r * math.cos(theta)


_RNG_OPS = st.lists(
    st.one_of(
        st.tuples(st.sampled_from(["uniform", "gauss", "next_uint64", "restore"])),
        st.tuples(st.just("gauss_vector"), st.integers(1, 40)),
        # Long runs of uniforms carry the stream across the doubling
        # blocks and past the block-size cap.
        st.tuples(st.just("skip"), st.integers(1, 1100)),
    ),
    max_size=40,
)


@settings(max_examples=150, deadline=None)
@given(
    seed=st.sampled_from([0, 11, 2**63 + 5, 2**64 - 1]),
    stream=st.sampled_from([0, 1, 7]),
    ops=_RNG_OPS,
)
def test_block_draws_match_scalar_oracle(seed, stream, ops):
    rng, ref = SplitMix64(seed, stream), ScalarSplitMix64(seed, stream)
    for op, *arg in ops:
        if op == "restore":  # mid-block, possibly with a cached deviate
            rng = SplitMix64.from_state(rng.getstate())
        elif op == "skip":
            assert [rng.uniform() for _ in range(arg[0])] == [
                ref.uniform() for _ in range(arg[0])]
        elif op == "gauss_vector":
            got = rng.gauss_vector(arg[0])
            assert got.shape == (arg[0],)
            assert got.tolist() == [ref.gauss() for _ in range(arg[0])]
        else:
            assert getattr(rng, op)() == getattr(ref, op)()
        assert rng.getstate() == (ref.state, stream, ref.cache)


def test_block_draws_cross_first_block_and_cap():
    rng, ref = SplitMix64(11, 1), ScalarSplitMix64(11, 1)
    # 16 raws fill the first block; blocks double up to 1024 raws, so
    # about 30,000 raws span many full-size blocks, with Box-Muller pairs
    # and cached deviates straddling the block edges.
    for i in range(5000):
        n = 1 + i % 9
        assert rng.gauss_vector(n).tolist() == [ref.gauss() for _ in range(n)]
        assert rng.uniform() == ref.uniform()
    assert rng.getstate() == (ref.state, 1, ref.cache)


SLOT_SEEDS = [0, 11, 2**63 + 5, 2**64 - 1]


def scalar_slots(ref, k, ndim):
    """k slots of the scalar oracle: ndim gauss() then one uniform() each."""
    z, logu = [], []
    for _ in range(k):
        z.append([ref.gauss() for _ in range(ndim)])
        u = ref.uniform()
        logu.append(math.log(u) if u > 0.0 else -math.inf)
    return z, logu


def peek_slots(rng, k, ndim):
    """``z`` and ``logu`` of the next ``k`` slots of ``rng``, not consumed."""
    return rng.peek_block(k, ndim)[:2]


def advance_slots(rng, n, ndim):
    """Consume ``n`` slots: ``n`` rounds of ``ndim`` ``gauss()`` and one ``uniform()``."""
    _, _, states, caches = rng.peek_block(n, ndim)
    rng.setstate((states[-1], rng.stream_id, caches[-1]))


@pytest.mark.parametrize("seed", SLOT_SEEDS)
@pytest.mark.parametrize("cached", [False, True])
@pytest.mark.parametrize("ndim", range(1, 7))
def test_slots_match_scalar_oracle(seed, cached, ndim):
    rng, ref = SplitMix64(seed, 2), ScalarSplitMix64(seed, 2)
    if cached:  # start with a Box-Muller deviate in the cache
        assert rng.gauss() == ref.gauss()
    # Peeks of several sizes, each advanced by fewer, as many or more
    # slots than it covers (the last ones leave the plan of the peek).
    for k, n in ((5, 3), (1, 1), (9, 9), (4, 7), (0, 2), (12, 0), (3, 5)):
        mirror = ScalarSplitMix64(seed)
        mirror.state, mirror.cache = ref.state, ref.cache
        z, logu = peek_slots(rng, k, ndim)
        assert rng.getstate() == (ref.state, 2, ref.cache)  # peeking consumes nothing
        want_z, want_logu = scalar_slots(mirror, k, ndim)
        assert z.shape == (k, ndim) and logu.shape == (k,)
        assert z.tolist() == want_z
        assert logu.tolist() == want_logu
        advance_slots(rng, n, ndim)
        scalar_slots(ref, n, ndim)
        assert rng.getstate() == (ref.state, 2, ref.cache)
    # Scalar draws carry on from where the slots left the stream.
    assert [rng.gauss() for _ in range(3)] == [ref.gauss() for _ in range(3)]
    assert rng.uniform() == ref.uniform()


@settings(max_examples=60, deadline=None)
@given(
    seed=st.sampled_from(SLOT_SEEDS),
    ndim=st.integers(1, 6),
    cached=st.booleans(),
    offset=st.integers(0, 40),
    sizes=st.lists(st.integers(1, 30), min_size=1, max_size=4),
)
def test_slot_values_do_not_depend_on_block(seed, ndim, cached, offset, sizes):
    # The slots past ``offset`` read the same bits from one long peek made
    # at the start as from a run of peeks of other sizes made later.
    rng = SplitMix64(seed, 5)
    if cached:
        rng.gauss()
    start = rng.getstate()
    z_all, logu_all = peek_slots(rng, offset + sum(sizes), ndim)
    rng = SplitMix64.from_state(start)
    advance_slots(rng, offset, ndim)
    at = offset
    for k in sizes:
        z, logu = peek_slots(rng, k, ndim)
        assert z.tobytes() == z_all[at : at + k].tobytes()
        assert logu.tobytes() == logu_all[at : at + k].tobytes()
        advance_slots(rng, k, ndim)
        at += k


def test_log_of_a_zero_uniform_is_minus_infinity():
    # SplitMix64 mixes 0 to 0, so the raw draw at state 0 gives the uniform
    # 0.0. Two slots of ndim 1 from this start draw a pair, a uniform, then
    # the cached sine and a uniform: slot 1's uniform is at state 0.
    start = (-4 * GOLDEN) & MASK
    rng, ref = SplitMix64(0), ScalarSplitMix64(0)
    rng.state = ref.state = start
    z, logu = peek_slots(rng, 3, 1)
    want_z, want_logu = scalar_slots(ref, 3, 1)
    assert logu.tolist() == want_logu
    assert logu[1] == -math.inf and math.isfinite(logu[0])
    assert z.tolist() == want_z


def test_scalar_draws_and_restores_drop_the_tape():
    rng = SplitMix64(5)
    for move in (SplitMix64.uniform, SplitMix64.next_uint64, SplitMix64.gauss,
                 lambda r: r.setstate(r.getstate())):
        for cached in (False, True):
            if cached and rng.gauss_cache is None:
                rng.gauss()
            peek_slots(rng, 4, 3)
            rng.tape = "derived from the peeked slots"
            assert rng.copy().tape is None
            move(rng)
            assert rng.tape is None
