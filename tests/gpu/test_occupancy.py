"""Tests for the occupancy calculator."""

import pytest

from repro.gpu import (
    TESLA_C2050,
    KernelSpec,
    LaunchConfig,
    occupancy,
)

LIGHT = KernelSpec(
    name="light",
    cycles_per_step=100,
    latency_cycles_per_step=100,
    registers_per_thread=0,
)


class TestLimits:
    def test_block_slot_limit(self):
        # Tiny blocks: the 8-blocks/SM cap binds first.
        occ = occupancy(TESLA_C2050, LIGHT, LaunchConfig(100, 32))
        assert occ.blocks_per_sm == 8
        assert occ.limiter == "blocks"

    def test_thread_limit(self):
        # 1024-thread blocks: 1536 // 1024 = 1 block per SM.
        occ = occupancy(TESLA_C2050, LIGHT, LaunchConfig(100, 1024))
        assert occ.blocks_per_sm == 1
        assert occ.limiter == "threads"

    def test_register_limit(self):
        heavy = KernelSpec(
            name="heavy",
            cycles_per_step=100,
            latency_cycles_per_step=100,
            registers_per_thread=63,
        )
        occ = occupancy(TESLA_C2050, heavy, LaunchConfig(10, 256))
        # 63 regs x 256 threads = 16128; 32768 // 16128 = 2 blocks.
        assert occ.limiter == "registers"
        assert occ.blocks_per_sm == 2

    def test_shared_mem_limit(self):
        smem = KernelSpec(
            name="smem",
            cycles_per_step=100,
            latency_cycles_per_step=100,
            registers_per_thread=0,
            shared_mem_per_block=20000,
        )
        occ = occupancy(TESLA_C2050, smem, LaunchConfig(10, 32))
        assert occ.limiter == "shared_mem"
        assert occ.blocks_per_sm == 2

    def test_impossible_kernel_raises(self):
        impossible = KernelSpec(
            name="imp",
            cycles_per_step=100,
            latency_cycles_per_step=100,
            shared_mem_per_block=10**6,
        )
        with pytest.raises(ValueError, match="cannot fit"):
            occupancy(TESLA_C2050, impossible, LaunchConfig(1, 32))

    def test_occupancy_fraction_bounds(self):
        occ = occupancy(TESLA_C2050, LIGHT, LaunchConfig(8, 192))
        assert 0 < occ.warp_occupancy <= 1
