"""Tests for the scalar xorshift64* generator."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.rng import XorShift64Star


class TestDeterminism:
    def test_same_seed_same_stream(self):
        a = XorShift64Star(123)
        b = XorShift64Star(123)
        assert [a.next_u64() for _ in range(10)] == [
            b.next_u64() for _ in range(10)
        ]

    def test_different_seeds_differ(self):
        a = XorShift64Star(1)
        b = XorShift64Star(2)
        assert [a.next_u64() for _ in range(4)] != [
            b.next_u64() for _ in range(4)
        ]

    def test_zero_seed_is_valid(self):
        rng = XorShift64Star(0)
        assert rng.next_u64() != rng.next_u64()


@given(st.integers(min_value=0, max_value=2**64 - 1))
def test_outputs_stay_in_64_bits(seed):
    rng = XorShift64Star(seed)
    for _ in range(8):
        assert 0 <= rng.next_u64() < 2**64


class TestRandrange:
    def test_rejects_nonpositive(self):
        rng = XorShift64Star(1)
        with pytest.raises(ValueError):
            rng.randrange(0)
        with pytest.raises(ValueError):
            rng.randrange(-3)

    @given(st.integers(min_value=1, max_value=10_000))
    def test_in_bounds(self, n):
        rng = XorShift64Star(99)
        for _ in range(16):
            assert 0 <= rng.randrange(n) < n

    def test_covers_small_range(self):
        rng = XorShift64Star(5)
        seen = {rng.randrange(4) for _ in range(200)}
        assert seen == {0, 1, 2, 3}

    def test_roughly_uniform(self):
        rng = XorShift64Star(7)
        counts = [0] * 8
        trials = 8000
        for _ in range(trials):
            counts[rng.randrange(8)] += 1
        for c in counts:
            assert abs(c - trials / 8) < 5 * (trials / 8) ** 0.5


class TestRandomFloat:
    def test_in_unit_interval(self):
        rng = XorShift64Star(3)
        for _ in range(100):
            x = rng.random()
            assert 0.0 <= x < 1.0

    def test_mean_near_half(self):
        rng = XorShift64Star(11)
        n = 4000
        mean = sum(rng.random() for _ in range(n)) / n
        assert abs(mean - 0.5) < 0.05


class TestHelpers:
    def test_shuffle_is_permutation(self):
        rng = XorShift64Star(9)
        xs = list(range(20))
        ys = xs.copy()
        rng.shuffle(ys)
        assert sorted(ys) == xs

    def test_fork_streams_are_independent(self):
        rng = XorShift64Star(4)
        a = rng.fork("a")
        b = rng.fork("b")
        assert a.next_u64() != b.next_u64()


class TestCheckpointState:
    def test_getstate_setstate_round_trip(self):
        rng = XorShift64Star(21)
        for _ in range(37):
            rng.next_u64()
        state = rng.getstate()
        ahead = [rng.next_u64() for _ in range(16)]
        rng.setstate(state)
        assert [rng.next_u64() for _ in range(16)] == ahead

    def test_from_state_resumes_the_stream(self):
        rng = XorShift64Star(8)
        rng.random()
        clone = XorShift64Star.from_state(rng.getstate())
        assert [clone.next_u64() for _ in range(8)] == [
            rng.next_u64() for _ in range(8)
        ]

    def test_state_is_plain_data(self):
        state = XorShift64Star(3).getstate()
        assert isinstance(state, int)

    def test_setstate_rejects_out_of_range(self):
        rng = XorShift64Star(1)
        with pytest.raises(ValueError):
            rng.setstate(-1)
        with pytest.raises(ValueError):
            rng.setstate(2**64)


@given(st.integers(min_value=0, max_value=2**64 - 1))
def test_state_round_trip_any_seed(seed):
    rng = XorShift64Star(seed)
    rng.next_u64()
    clone = XorShift64Star.from_state(rng.getstate())
    assert clone.next_u64() == rng.next_u64()
