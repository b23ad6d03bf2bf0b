"""Tests for the greedy block scheduler."""

import heapq

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gpu import greedy_makespan, wave_assignment


class TestGreedyMakespan:
    def test_empty(self):
        assert greedy_makespan([], 4) == 0.0

    def test_fits_in_slots(self):
        assert greedy_makespan([3.0, 1.0, 2.0], 4) == 3.0

    def test_serialises_on_one_slot(self):
        assert greedy_makespan([3.0, 1.0, 2.0], 1) == 6.0

    def test_two_slots(self):
        # slot A: 3; slot B: 1 then 2 -> makespan 3
        assert greedy_makespan([3.0, 1.0, 2.0], 2) == 3.0

    def test_reuses_freed_slot(self):
        # slots: [5] and [1,1,1,1,1] -> 5
        assert greedy_makespan([5.0, 1.0, 1.0, 1.0, 1.0, 1.0], 2) == 5.0

    def test_rejects_zero_slots(self):
        with pytest.raises(ValueError):
            greedy_makespan([1.0], 0)

    def test_rejects_negative_times(self):
        with pytest.raises(ValueError):
            greedy_makespan([-1.0], 2)


@given(
    st.lists(st.floats(min_value=0, max_value=100), max_size=40),
    st.integers(min_value=1, max_value=16),
)
def test_makespan_bounds(times, slots):
    """Greedy is within the classic [max(LB), sum] envelope."""
    ms = greedy_makespan(times, slots)
    total = sum(times)
    lower = max(max(times, default=0.0), total / slots)
    assert lower - 1e-9 <= ms <= total + 1e-9


@given(st.lists(st.floats(min_value=0, max_value=100), max_size=40))
def test_more_slots_never_slower(times):
    assert greedy_makespan(times, 4) <= greedy_makespan(times, 2) + 1e-9


def _makespan_on_numpy_scalars(block_times, slots):
    """``greedy_makespan`` as it ran its heap before: pop-min / push on
    ``np.float64`` scalars.  Kept as the oracle of the float version."""
    times = np.asarray(block_times, dtype=float)
    if slots >= times.size:
        return float(times.max(initial=0.0))
    heap = list(times[:slots])
    heapq.heapify(heap)
    for t in times[slots:]:
        free_at = heapq.heappop(heap)
        heapq.heappush(heap, free_at + t)
    return float(max(heap))


@settings(max_examples=120, deadline=None)
@given(
    # Playout step counts times a step cost (what ``kernel_time`` passes)
    # and arbitrary doubles, ties included.
    st.one_of(
        st.lists(st.integers(0, 130), max_size=300).map(
            lambda steps: np.array(steps) * 1.37e-6
        ),
        st.lists(st.floats(min_value=0, max_value=1e6), max_size=80),
    ),
    st.integers(min_value=1, max_value=120),
)
def test_makespan_is_the_same_doubles_as_the_numpy_scalar_heap(times, slots):
    got = greedy_makespan(times, slots)
    assert type(got) is float
    assert got == _makespan_on_numpy_scalars(times, slots)


class TestWaveAssignment:
    def test_exact_division(self):
        waves = wave_assignment(8, 4)
        assert [list(w) for w in waves] == [[0, 1, 2, 3], [4, 5, 6, 7]]

    def test_remainder_wave(self):
        waves = wave_assignment(5, 4)
        assert [list(w) for w in waves] == [[0, 1, 2, 3], [4]]

    def test_zero_blocks(self):
        assert wave_assignment(0, 4) == []

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            wave_assignment(4, 0)
        with pytest.raises(ValueError):
            wave_assignment(-1, 2)
