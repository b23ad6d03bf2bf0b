"""The two bodies of the playout exports (``playout.c``, "The two
bodies"): which one the library picks, the pin the walls use to run the
other, and the one thing the bodies compute differently -- the n-th set
bit of a move mask, ``pdep`` against the loop -- held to a third,
independent implementation, the NumPy byte table the lockstep driver
uses.  Whole playouts are held equal body against body by the
``*_other_body.py`` twins of the differential walls."""

import platform

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.compiled import compiled_available, kernel_body, load_library
from repro.compiled.build import (
    KERNEL_BODIES,
    kernel_bodies,
    lazy_export,
    pinned_kernel_body,
)
from repro.games.batch import select_nth_bit

pytestmark = pytest.mark.compiled

needs_kernel = pytest.mark.skipif(
    not compiled_available(), reason="no compiled kernel library on this host"
)

FULL = 2**64 - 1
TOP = 2**63


def nth_bits(masks, ranks):
    """The current body's pick on each (mask, rank) row, as a bit."""
    masks = np.array(masks, dtype=np.uint64)
    ranks = np.array(ranks, dtype=np.uint64)
    out = np.empty_like(masks)
    lazy_export(load_library(), "nth_bits")(
        len(masks), masks.ctypes.data, ranks.ctypes.data, out.ctypes.data
    )
    return out.tolist()


@st.composite
def masks_and_ranks(draw):
    """Non-empty 64-bit masks -- arbitrary, sparse, dense, bit 63 set,
    one bit, the full word -- each with a rank in [0, popcount)."""
    mask = draw(
        st.one_of(
            st.integers(1, FULL),
            st.integers(0, 63).map(lambda i: 1 << i),
            st.integers(0, FULL).map(lambda m: m | TOP),
            st.lists(st.integers(0, 63), min_size=1, max_size=4).map(
                lambda bits: sum({1 << i for i in bits})
            ),
            st.integers(0, 63).map(lambda i: FULL ^ (1 << i)),
            st.just(FULL),
        )
    )
    return mask, draw(st.integers(0, mask.bit_count() - 1))


@needs_kernel
@settings(max_examples=300, deadline=None)
@given(rows=st.lists(masks_and_ranks(), min_size=1, max_size=16))
@example(rows=[(TOP, 0), (1, 0), (FULL, 0), (FULL, 63), (FULL, 31)])
@example(rows=[(TOP | 1, 1), (0x8000000000000100, 1), (FULL ^ TOP, 62)])
def test_every_body_picks_the_bit_the_byte_table_picks(rows):
    masks, ranks = zip(*rows)
    index = select_nth_bit(
        np.array(masks, dtype=np.uint64), np.array(ranks, dtype=np.int64)
    )
    want = [1 << int(i) for i in index]
    assert all(bit & mask for bit, mask in zip(want, masks))
    for body in kernel_bodies():
        with pinned_kernel_body(body):
            assert nth_bits(masks, ranks) == want, body


@needs_kernel
def test_the_pin_holds_for_its_block_and_restores_the_pick():
    picked = kernel_body()
    assert picked in kernel_bodies()
    assert kernel_bodies()[0] == KERNEL_BODIES[0]
    for body in kernel_bodies():
        with pinned_kernel_body(body):
            assert kernel_body() == body
        assert kernel_body() == picked
    with pytest.raises(RuntimeError), pinned_kernel_body(KERNEL_BODIES[0]):
        raise RuntimeError("the body fails")
    assert kernel_body() == picked


def test_a_body_the_host_cannot_run_is_refused(compiled_env):
    compiled_env("0")
    assert kernel_body() is None and kernel_bodies() == ()
    with pytest.raises(LookupError, match="cannot run"):
        with pinned_kernel_body(KERNEL_BODIES[0]):
            pass


def _first_cpu():
    """The first processor's ``/proc/cpuinfo`` fields, or ``None``."""
    try:
        with open("/proc/cpuinfo") as f:
            block = f.read().split("\n\n", 1)[0]
    except OSError:
        return None
    fields = (line.partition(":") for line in block.splitlines())
    return {key.strip(): value.strip() for key, _, value in fields}


@needs_kernel
def test_a_cpu_with_the_isa_gets_the_fast_body():
    """Where the CPU has popcnt, BMI1 and BMI2 and is not AMD Zen 1 /
    Zen 2 (family 23, microcoded ``pdep``), the library must have bound
    the fast body: a dispatch that silently stays portable fails here,
    not only in the benchmark."""
    cpu = _first_cpu()
    if platform.machine() not in ("x86_64", "AMD64") or not cpu:
        pytest.skip("not an x86-64 host with /proc/cpuinfo")
    flags = set(cpu.get("flags", "").split())
    assert ("popcnt+bmi2" in kernel_bodies()) == (
        {"popcnt", "bmi1", "bmi2"} <= flags
    )
    if not {"popcnt", "bmi1", "bmi2"} <= flags:
        pytest.skip("this CPU lacks popcnt / BMI1 / BMI2")
    if cpu.get("vendor_id") == "AuthenticAMD" and cpu.get("cpu family") == "23":
        pytest.skip("AMD Zen 1 / Zen 2 keep the portable body")
    assert kernel_body() == "popcnt+bmi2"
