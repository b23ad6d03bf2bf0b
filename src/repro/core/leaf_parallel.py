"""Leaf-parallel MCTS on the (virtual) GPU.

The paper's simplest GPU scheme: one tree on the CPU; each iteration
ships the selected leaf to the GPU, which runs one playout per thread
from that same position, and the whole grid's results are
backpropagated at once.  Accuracy per iteration improves with thread
count but all samples come from a single point -- the reason its win
ratio plateaus around 0.75 in the paper's Figure 6 while block
parallelism keeps climbing.
"""

from __future__ import annotations

from repro.core.base import GpuEngine
from repro.core.results import register_extra_keys
from repro.core.rounds import LeafRound
from repro.games.base import GameState


class LeafParallelMcts(GpuEngine):
    """One tree, grid-wide playouts from the selected leaf."""

    name = "leaf_parallel"
    round_policy = LeafRound

    def _begin_session(self, state: GameState, budget_s: float) -> None:
        self._check_budget(budget_s, state)
        self._live = {
            "tree": self._make_forest(state, [self.rng.fork("tree")]),
            "start_s": self.clock.now,
            "budget_s": budget_s,
            "iterations": 0,
            "simulations": 0,
        }


register_extra_keys(
    LeafParallelMcts.name,
    {"gpu.kernels": int, "tree.depth": list, "tree.nodes": list},
)
