"""Tests for the vectorised per-lane generator."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.rng import BatchXorShift128Plus


class TestConstruction:
    def test_rejects_zero_lanes(self):
        with pytest.raises(ValueError):
            BatchXorShift128Plus(0, seed=1)

    def test_lane_count(self):
        assert BatchXorShift128Plus(17, seed=1).n == 17


class TestDeterminism:
    def test_same_seed_same_streams(self):
        a = BatchXorShift128Plus(8, seed=5)
        b = BatchXorShift128Plus(8, seed=5)
        np.testing.assert_array_equal(a.next_u64(), b.next_u64())

    def test_lanes_are_distinct(self):
        rng = BatchXorShift128Plus(64, seed=5)
        out = rng.next_u64()
        assert len(np.unique(out)) == 64

    def test_digest_changes_after_step(self):
        rng = BatchXorShift128Plus(4, seed=2)
        d0 = rng.state_digest()
        rng.next_u64()
        assert rng.state_digest() != d0


class TestLaneIndependence:
    def test_prefix_lanes_match_wider_generator(self):
        """Lane i's stream depends only on (seed, i), not on n."""
        small = BatchXorShift128Plus(4, seed=9)
        large = BatchXorShift128Plus(16, seed=9)
        np.testing.assert_array_equal(
            small.next_u64(), large.next_u64()[:4]
        )


class TestRandbelow:
    def test_zero_bound_gives_zero(self):
        rng = BatchXorShift128Plus(4, seed=1)
        out = rng.randbelow(np.array([0, 1, 2, 3]))
        assert out[0] == 0

    @settings(max_examples=25)
    @given(st.integers(min_value=1, max_value=64))
    def test_within_bounds(self, bound):
        rng = BatchXorShift128Plus(128, seed=8)
        bounds = np.full(128, bound, dtype=np.int64)
        for _ in range(4):
            out = rng.randbelow(bounds)
            assert np.all(out >= 0) and np.all(out < bound)

    def test_mixed_bounds(self):
        rng = BatchXorShift128Plus(5, seed=8)
        bounds = np.array([1, 2, 3, 10, 60])
        for _ in range(20):
            out = rng.randbelow(bounds)
            assert np.all(out < bounds)

    def test_covers_range(self):
        rng = BatchXorShift128Plus(256, seed=13)
        bounds = np.full(256, 6)
        seen = set()
        for _ in range(10):
            seen.update(rng.randbelow(bounds).tolist())
        assert seen == {0, 1, 2, 3, 4, 5}


class TestCheckpointState:
    def test_state_arrays_are_copies(self):
        rng = BatchXorShift128Plus(4, seed=9)
        n, s0, s1 = rng.getstate()
        digest = rng.state_digest()
        s0[:] = 0
        s1[:] = 0
        assert rng.state_digest() == digest
