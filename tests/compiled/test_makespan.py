"""Differential wall for the grid makespan's C heap
(``repro_greedy_makespan`` behind
:func:`repro.compiled.makespan_compiled`): every virtual-GPU kernel
whose grid is wider than the device's slots is charged through it, so
it must return the double the Python body
(:func:`repro.gpu.scheduler.greedy_makespan`) returns -- the same heap
operations on the same floats, ties and zeros included -- and refuse
what the Python body refuses.  Without a C toolchain
``makespan_compiled`` runs the Python body and the comparisons hold
trivially.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compiled import compiled_available, makespan_compiled
from repro.gpu import greedy_makespan

pytestmark = pytest.mark.compiled

#: Block times as ``kernel_time`` hands them over -- lockstep step
#: counts times one SM step time, so many ties and zeros -- and
#: arbitrary non-negative doubles.
TIMES = st.one_of(
    st.lists(st.integers(0, 130), max_size=300).map(
        lambda steps: np.array(steps) * 1.37e-6
    ),
    st.lists(st.sampled_from([0.0, 1.0, 2.5, 1e-300]), max_size=60),
    st.lists(
        st.floats(min_value=0, max_value=1e9, allow_subnormal=True),
        max_size=80,
    ),
)


@settings(max_examples=300, deadline=None)
@given(times=TIMES, slots=st.integers(min_value=1, max_value=320))
def test_the_c_heap_returns_the_python_double(times, slots):
    got = makespan_compiled(times, slots)
    assert type(got) is float
    assert got == greedy_makespan(times, slots)


@pytest.mark.parametrize(
    "times,slots",
    [
        pytest.param([3.0, 1.0, 2.0], 1, id="one-slot"),
        pytest.param([0.0] * 9, 4, id="all-zero"),
        pytest.param([2.0] * 7, 3, id="all-tied"),
        pytest.param([5.0, 1.0, 1.0, 1.0, 1.0, 1.0], 2, id="reuses-a-slot"),
        pytest.param([3.0, 1.0, 2.0], 3, id="slots-equal-blocks"),
        pytest.param([3.0, 1.0, 2.0], 8, id="slots-over-blocks"),
        pytest.param([], 2, id="no-blocks"),
    ],
)
def test_edges(times, slots):
    assert makespan_compiled(times, slots) == greedy_makespan(times, slots)


@given(
    times=st.lists(st.floats(min_value=0, max_value=1e6), min_size=1,
                   max_size=40),
    at=st.integers(min_value=0),
    negative=st.floats(max_value=-1e-300, allow_infinity=False),
    slots=st.integers(min_value=1, max_value=50),
)
def test_a_negative_time_is_refused_on_both(times, at, negative, slots):
    times[at % len(times)] = negative
    for makespan in (makespan_compiled, greedy_makespan):
        with pytest.raises(ValueError, match="must be non-negative"):
            makespan(times, slots)


@pytest.mark.parametrize("slots", [0, -1])
def test_no_slot_is_refused_on_both(slots):
    for makespan in (makespan_compiled, greedy_makespan):
        with pytest.raises(ValueError, match="at least one slot"):
            makespan([1.0, 2.0], slots)


@pytest.mark.skipif(not compiled_available(), reason="no compiled library")
def test_wide_grids_take_the_c_heap(monkeypatch):
    """A grid wider than its slots never reaches the Python body."""
    import repro.gpu.scheduler as scheduler

    def unusable(*args):
        raise AssertionError("the Python heap ran with the library loaded")

    monkeypatch.setattr(scheduler, "greedy_makespan", unusable)
    assert makespan_compiled([3.0, 1.0, 2.0], 2) == 3.0
