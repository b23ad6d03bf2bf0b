"""Tests for the virtual clock."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.util.clock import Clock, ClockError


class TestClock:
    def test_starts_at_zero(self):
        assert Clock().now == 0.0

    def test_custom_start(self):
        assert Clock(5.0).now == 5.0

    def test_negative_start_rejected(self):
        with pytest.raises(ClockError):
            Clock(-1.0)

    def test_advance_accumulates(self):
        c = Clock()
        c.advance(1.5)
        c.advance(2.5)
        assert c.now == 4.0

    def test_advance_returns_new_time(self):
        assert Clock().advance(3.0) == 3.0

    def test_negative_advance_rejected(self):
        c = Clock()
        with pytest.raises(ClockError):
            c.advance(-0.1)

    def test_advance_to_jumps_forward(self):
        c = Clock()
        c.advance_to(10.0)
        assert c.now == 10.0

    def test_advance_to_never_rewinds(self):
        c = Clock(10.0)
        c.advance_to(5.0)
        assert c.now == 10.0

    def test_reset(self):
        c = Clock(9.0)
        c.reset()
        assert c.now == 0.0

    def test_reset_negative_rejected(self):
        with pytest.raises(ClockError):
            Clock().reset(-2.0)


@given(st.lists(st.floats(min_value=0, max_value=1e6), max_size=50))
def test_clock_is_monotone_under_any_advances(steps):
    c = Clock()
    last = 0.0
    for dt in steps:
        c.advance(dt)
        assert c.now >= last
        last = c.now
