"""CUDA-style occupancy calculation.

How many blocks of a given kernel fit on one SM at once, limited by the
block-slot count, thread count, warp count, register file and shared
memory -- the same arithmetic as NVIDIA's occupancy calculator, which
determines how many *waves* a large grid needs and therefore how kernel
time scales with block count in :mod:`repro.gpu.timing`.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.gpu.device import DeviceSpec
from repro.gpu.kernel import KernelSpec, LaunchConfig


@dataclass(frozen=True)
class Occupancy:
    """Residency of one kernel configuration on one device."""

    blocks_per_sm: int
    warps_per_sm: int
    #: Fraction of the SM's warp slots used (0..1].
    warp_occupancy: float
    #: Which resource capped residency ("blocks", "threads", "warps",
    #: "registers", "shared_mem").
    limiter: str


def occupancy(
    spec: DeviceSpec, kernel: KernelSpec, config: LaunchConfig
) -> Occupancy:
    """Resident blocks/warps per SM for ``kernel`` at ``config``."""
    config.validate(spec)
    tpb = config.threads_per_block
    wpb = config.warps_per_block(spec)

    limits = {
        "blocks": spec.max_blocks_per_sm,
        "threads": spec.max_threads_per_sm // tpb,
        "warps": spec.max_warps_per_sm // wpb,
    }
    regs_per_block = kernel.registers_per_thread * tpb
    if regs_per_block > 0:
        limits["registers"] = spec.registers_per_sm // regs_per_block
    if kernel.shared_mem_per_block > 0:
        limits["shared_mem"] = (
            spec.shared_mem_per_sm // kernel.shared_mem_per_block
        )

    limiter = min(limits, key=lambda k: limits[k])
    blocks_per_sm = limits[limiter]
    if blocks_per_sm < 1:
        raise ValueError(
            f"kernel {kernel.name!r} cannot fit a single "
            f"{tpb}-thread block on {spec.name} (limited by {limiter})"
        )
    warps_per_sm = blocks_per_sm * wpb
    return Occupancy(
        blocks_per_sm=blocks_per_sm,
        warps_per_sm=warps_per_sm,
        warp_occupancy=warps_per_sm / spec.max_warps_per_sm,
        limiter=limiter,
    )
