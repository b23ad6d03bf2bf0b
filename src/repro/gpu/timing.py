"""Analytic kernel timing model.

The model has three regimes, matching how SIMT hardware behaves:

* **Latency-bound** -- too few resident warps to hide dependent
  latency: one lockstep step costs ``latency_cycles_per_step`` no
  matter how few lanes are active.  This is why launching 1..32 threads
  is absurdly inefficient (left edge of the paper's Figure 5).
* **Issue-bound** -- enough warps resident that the SM is limited by
  instruction issue: a step costs ``warps * cycles_per_step`` cycles,
  so throughput grows ~linearly with threads until residency caps out.
* **Wave-serialised** -- grids larger than the device's concurrent
  block capacity run in waves (greedy slot reuse), so time grows
  ~linearly with blocks past saturation (right edge of Figure 5).

All playouts in a block run in lockstep until the block's slowest lane
finishes, so the per-block cost is ``max steps over the block's lanes``
-- the quantity the playout kernel reports.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.gpu.device import DeviceSpec
from repro.gpu.kernel import KernelSpec, LaunchConfig
from repro.gpu.occupancy import occupancy
from repro.gpu.scheduler import greedy_makespan


def sm_step_time(
    spec: DeviceSpec, kernel: KernelSpec, resident_warps: int
) -> float:
    """Seconds for one SM holding ``resident_warps`` warps to advance
    every resident lane by one game ply."""
    if resident_warps <= 0:
        raise ValueError(
            f"resident_warps must be positive: {resident_warps}"
        )
    issue_cycles = resident_warps * kernel.cycles_per_step / spec.issue_per_cycle
    cycles = max(issue_cycles, kernel.latency_cycles_per_step)
    return cycles * kernel.divergence_overhead / spec.clock_hz


@dataclass(frozen=True)
class KernelTiming:
    """Breakdown of one kernel execution's modelled cost."""

    launch_s: float
    compute_s: float
    transfer_s: float

    @property
    def total_s(self) -> float:
        return self.launch_s + self.compute_s + self.transfer_s


#: ``(spec, kernel, slots, sm_step_time)`` of a launch shape, by
#: ``(id(spec), id(kernel), blocks, threads_per_block)``: occupancy and
#: the step time are pure functions of the shape, so the memo hands
#: back the very floats it would compute.  Held by ``id`` beside the
#: spec and kernel themselves -- hashing the frozen dataclasses costs
#: more than the memo saves on a short launch.
_LAUNCH_SHAPES: dict = {}
#: Shapes the memo holds at most (a caller may build specs per call).
_SHAPES_CAP = 1 << 12


def _launch_shape(
    spec: DeviceSpec, kernel: KernelSpec, config: LaunchConfig
) -> tuple[int, float]:
    """``(slots, t_step)`` of ``config``: the blocks the device runs at
    once, and the SM step time at the grid's actual residency."""
    key = (id(spec), id(kernel), config.blocks, config.threads_per_block)
    entry = _LAUNCH_SHAPES.get(key)
    if entry is not None and entry[0] is spec and entry[1] is kernel:
        return entry[2], entry[3]
    occ = occupancy(spec, kernel, config)
    slots = occ.blocks_per_sm * spec.sm_count
    # With fewer blocks than slots, residency per SM is lower and each
    # step is cheaper (fewer warps competing for issue).
    blocks_per_sm_actual = min(
        occ.blocks_per_sm, -(-config.blocks // spec.sm_count)
    )
    resident_warps = max(
        1, blocks_per_sm_actual * config.warps_per_block(spec)
    )
    t_step = sm_step_time(spec, kernel, resident_warps)
    if len(_LAUNCH_SHAPES) < _SHAPES_CAP:
        _LAUNCH_SHAPES[key] = (spec, kernel, slots, t_step)
    return slots, t_step


def kernel_time(
    spec: DeviceSpec,
    kernel: KernelSpec,
    config: LaunchConfig,
    block_steps,
    transfer_bytes: int = 0,
) -> KernelTiming:
    """Modelled execution time of one playout kernel.

    Parameters
    ----------
    block_steps:
        Per-block lockstep step counts (length ``config.blocks``): the
        number of plies until the block's slowest lane finished.
    transfer_bytes:
        Result bytes copied back to the host after the kernel.
    """
    steps = np.asarray(block_steps, dtype=float)
    if steps.shape != (config.blocks,):
        raise ValueError(
            f"block_steps has shape {steps.shape}, expected "
            f"({config.blocks},)"
        )
    slots, t_step = _launch_shape(spec, kernel, config)
    # A block's slot is busy for (its steps) x (the SM step time);
    # greedy reuse of freed slots gives the grid makespan.  A grid
    # that fits the slots at once takes as long as its slowest block:
    # ``max(steps) * t_step`` is the same double as the largest
    # product (rounding is monotone), on Python numbers.
    if config.blocks <= slots:
        values = steps.tolist()
        if min(values) < 0:
            raise ValueError("block times must be non-negative")
        compute = max(values) * t_step
    else:
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


def peak_playout_rate(
    spec: DeviceSpec,
    kernel: KernelSpec,
    config: LaunchConfig,
    mean_steps: float,
) -> float:
    """Sustained playouts/second for a saturating stream of identical
    kernels (used for quick model sanity checks and calibration)."""
    steps = np.full(config.blocks, mean_steps)
    timing = kernel_time(spec, kernel, config, steps)
    return config.total_threads / timing.total_s
