"""Hybrid CPU/GPU MCTS (paper Figure 4).

Block-parallel search whose kernel is launched *asynchronously*: while
the GPU simulates, the controlling CPU keeps running plain sequential
MCTS iterations over the same trees (round-robin), deepening them.
The paper observes GPU-only trees are shallow (each iteration waits a
whole kernel); the hybrid recovers depth and improves the endgame
(Figure 8) -- both effects this engine reproduces, and both visible in
its telemetry (``max_depth``, ``extras['cpu.iterations']``).
"""

from __future__ import annotations

from repro.core.base import GpuEngine
from repro.core.results import register_extra_keys
from repro.core.rounds import HybridRound
from repro.games.base import GameState


class HybridMcts(GpuEngine):
    """Asynchronous block-parallel GPU + overlapped CPU iterations."""

    name = "hybrid"
    round_policy = HybridRound

    def _begin_session(
        self, state: GameState, budget_s: float, executor
    ) -> None:
        self._check_budget(budget_s, state)
        blocks = self.config.blocks
        self._live = {
            "forest": self._make_forest(
                state, [self.rng.fork("tree", b) for b in range(blocks)]
            ),
            "playout_rng": self.rng.fork("cpu_playout"),
            "start_s": self.clock.now,
            "budget_s": budget_s,
            "next_tree": 0,
            "iterations": 0,
            "cpu_iterations": 0,
            "simulations": 0,
        }


register_extra_keys(
    HybridMcts.name,
    {
        "cpu.iterations": int,
        "gpu.kernels": int,
        "tree.depth": list,
        "tree.nodes": list,
    },
)
