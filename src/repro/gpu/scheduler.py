"""Block scheduling onto SM slots.

Real GPUs retire thread blocks independently: as soon as a block
finishes, the hardware work distributor places the next pending block on
the freed slot.  We model that with greedy list scheduling over
``slots = blocks_per_sm * sm_count`` identical slots, which gives the
makespan of a grid whose blocks run for different durations (blocks
whose playouts end early -- short Reversi endgames -- free their slot
sooner).
"""

from __future__ import annotations

import heapq
from typing import Sequence

import numpy as np


def greedy_makespan(block_times: Sequence[float], slots: int) -> float:
    """Completion time of ``block_times`` on ``slots`` parallel slots,
    blocks dispatched in index order as slots free up."""
    if slots <= 0:
        raise ValueError(f"need at least one slot, got {slots}")
    times = np.asarray(block_times, dtype=float)
    if times.size == 0:
        return 0.0
    if np.any(times < 0):
        raise ValueError("block times must be non-negative")
    if slots >= times.size:
        return float(times.max())
    # Seed the first `slots` blocks, then pop-min/push for the rest --
    # on Python floats: the same doubles as NumPy scalars, at half the
    # cost per heap operation.
    times = times.tolist()
    heap = times[:slots]
    heapq.heapify(heap)
    for t in times[slots:]:
        heapq.heapreplace(heap, heap[0] + t)
    return max(heap)
