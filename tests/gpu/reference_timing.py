"""The kernel timing model as it was computed from scratch per launch:
the oracle of :func:`repro.gpu.timing.kernel_time`.

``kernel_time`` now folds a launch shape's occupancy and SM step time
once per ``(spec, kernel, config)`` and takes a grid that fits the
device's slots as ``max(steps) * t_step`` on Python numbers; the fused
batcher times a launch from per-block maxima instead of a padded,
reshaped lane array.  This module keeps both earlier bodies, and
``test_timing.py`` holds the product to the same doubles.
"""

from __future__ import annotations

import numpy as np

from repro.gpu.kernel import LaunchConfig
from repro.gpu.occupancy import occupancy
from repro.gpu.scheduler import greedy_makespan
from repro.gpu.timing import KernelTiming, sm_step_time


def reference_kernel_time(
    spec, kernel, config, block_steps, transfer_bytes: int = 0
) -> KernelTiming:
    """``kernel_time``: occupancy, step time and greedy makespan
    recomputed on every call."""
    steps = np.asarray(block_steps, dtype=float)
    if steps.shape != (config.blocks,):
        raise ValueError(
            f"block_steps has shape {steps.shape}, expected "
            f"({config.blocks},)"
        )
    occ = occupancy(spec, kernel, config)
    slots = occ.blocks_per_sm * spec.sm_count
    blocks_per_sm_actual = min(
        occ.blocks_per_sm, -(-config.blocks // spec.sm_count)
    )
    resident_warps = max(
        1, blocks_per_sm_actual * config.warps_per_block(spec)
    )
    t_step = sm_step_time(spec, kernel, resident_warps)
    compute = greedy_makespan(steps * t_step, slots)
    transfer = 0.0
    if transfer_bytes > 0:
        transfer = (
            spec.transfer_latency_s
            + transfer_bytes / spec.transfer_bandwidth_Bps
        )
    return KernelTiming(
        launch_s=spec.kernel_launch_latency_s,
        compute_s=compute,
        transfer_s=transfer,
    )


def reference_fused_seconds(
    spec, kernel, segments, finish_steps_by_game, tpb: int
) -> float:
    """A fused launch's modelled seconds on ``spec``: every segment's
    lanes copied into a zeroed grid at whole-block offsets, the block
    count padded to a power of two, each row's maximum taken."""
    real_blocks = sum(-(-(hi - lo) // tpb) for _, lo, hi in segments)
    padded_blocks = 1 << (real_blocks - 1).bit_length()
    config = LaunchConfig(blocks=padded_blocks, threads_per_block=tpb)
    steps = np.zeros(config.total_threads, dtype=np.int64)
    offset = 0
    real_lanes = 0
    for game, lo, hi in segments:
        lanes = hi - lo
        steps[offset : offset + lanes] = finish_steps_by_game[game][lo:hi]
        offset += -(-lanes // tpb) * tpb
        real_lanes += lanes
    block_steps = steps.reshape(padded_blocks, tpb).max(axis=1)
    return reference_kernel_time(
        spec, kernel, config, block_steps, transfer_bytes=4 * real_lanes
    ).total_s


def reference_chunk_seconds(spec, kernel, finish_steps, lanes: int) -> float:
    """An unfused chunk's modelled seconds on ``spec``: the lanes
    zero-padded to the grid ``launch_config_for`` picks, each block's
    maximum taken."""
    from repro.serve.scheduler import launch_config_for

    config = launch_config_for(lanes, spec.warp_size)
    padded = np.zeros(config.total_threads, dtype=np.int64)
    padded[:lanes] = finish_steps
    block_steps = padded.reshape(
        config.blocks, config.threads_per_block
    ).max(axis=1)
    return reference_kernel_time(
        spec, kernel, config, block_steps, transfer_bytes=4 * lanes
    ).total_s
