"""Warp-divergence telemetry.

In the lockstep playout kernel every lane of a warp executes until the
warp's slowest lane finishes its game; lanes whose games end early idle
(masked) for the remaining steps.  This module quantifies that waste
from the per-lane finish steps the kernel records -- the simulated
counterpart of profiling achieved SIMT efficiency with ``nvprof``.
The numbers feed the divergence ablation and justify the kernel spec's
``divergence_overhead`` constant.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.gpu.kernel import LaunchConfig


@dataclass(frozen=True)
class DivergenceReport:
    """SIMT efficiency of one kernel execution."""

    #: Per-warp efficiency: mean(lane steps) / max(lane steps).
    warp_efficiency: np.ndarray
    #: Total lane-steps actually needed by the games.
    useful_lane_steps: int
    #: Lane-steps spent masked (lane finished, warp still running).
    wasted_lane_steps: int

    @property
    def mean_efficiency(self) -> float:
        return float(self.warp_efficiency.mean())

    @property
    def utilisation(self) -> float:
        """Useful / (useful + wasted) over the whole grid."""
        total = self.useful_lane_steps + self.wasted_lane_steps
        if total == 0:
            return 1.0
        return self.useful_lane_steps / total


def analyze_divergence(
    finish_steps: np.ndarray,
    config: LaunchConfig,
    warp_size: int = 32,
) -> DivergenceReport:
    """Divergence statistics from per-lane finish steps.

    Lanes are grouped into warps within their block (a partial block
    still occupies whole warps; the padding lanes are excluded from the
    efficiency statistics because the hardware masks them from launch).
    """
    steps = np.asarray(finish_steps, dtype=np.int64)
    if steps.shape != (config.total_threads,):
        raise ValueError(
            f"finish_steps has shape {steps.shape}, expected "
            f"({config.total_threads},)"
        )
    if np.any(steps < 0):
        raise ValueError("finish steps must be non-negative")

    efficiencies = []
    useful = 0
    wasted = 0
    tpb = config.threads_per_block
    for b in range(config.blocks):
        lanes = steps[b * tpb : (b + 1) * tpb]
        for w in range(0, tpb, warp_size):
            warp = lanes[w : w + warp_size]
            longest = int(warp.max())
            if longest == 0:
                efficiencies.append(1.0)
                continue
            useful += int(warp.sum())
            wasted += longest * warp.shape[0] - int(warp.sum())
            efficiencies.append(float(warp.mean() / longest))
    return DivergenceReport(
        warp_efficiency=np.array(efficiencies),
        useful_lane_steps=useful,
        wasted_lane_steps=wasted,
    )
