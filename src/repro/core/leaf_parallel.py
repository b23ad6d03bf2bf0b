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

from repro.core.base import Engine, tally
from repro.core.results import SearchResult, register_extra_keys
from repro.cpu import XEON_X5670
from repro.games.base import GameState
from repro.gpu import TESLA_C2050


class LeafParallelMcts(Engine):
    """One tree, grid-wide playouts from the selected leaf."""

    name = "leaf_parallel"

    def __init__(
        self,
        game,
        seed,
        blocks: int,
        threads_per_block: int,
        device=TESLA_C2050,
        cost_model=XEON_X5670,
        **kwargs,
    ) -> None:
        super().__init__(game, seed, cost_model=cost_model, **kwargs)
        self._attach_gpu(blocks, threads_per_block, device)

    def search(self, state: GameState, budget_s: float) -> SearchResult:
        self._check_budget(budget_s, state)
        self._live = {
            "tree": self._make_forest(state, [self.rng.fork("tree")]),
            "start_s": self.clock.now,
            "budget_s": budget_s,
            "iterations": 0,
            "simulations": 0,
        }
        return self._session_run()

    def _session_run(self) -> SearchResult:
        live = self._live
        tree = live["tree"]
        budget_s = live["budget_s"]
        cap = self._iteration_cap()
        grid = self.config.total_threads
        while (
            self.clock.now - live["start_s"] < budget_s
            and live["iterations"] < cap
        ) or live["iterations"] == 0:
            node, depth = tree.select_expand()
            # CPU sequential share: tree walk + kernel marshalling.
            self.clock.advance(self.cost.tree_control_time(depth))
            if tree.terminal_of(node):
                # The kernel would return the same outcome in every
                # lane; skip the launch, keep the statistics faithful.
                tree.backprop_winner(node, tree.winner_of(node), grid)
            else:
                result = self.gpu.run_playouts(
                    tree.positions_of([node]), self.config
                )
                wins_b, wins_w, draws = tally(result.winners)
                tree.backprop(node, grid, wins_b, wins_w, draws)
            live["iterations"] += 1
            live["simulations"] += grid
            self._after_iteration(live["iterations"])
        return self._finish(
            tree,
            self.clock.now - live["start_s"],
            {"gpu.kernels": self.gpu.stats.kernels_launched},
        )

register_extra_keys(
    LeafParallelMcts.name,
    {"gpu.kernels": int, "tree.depth": list, "tree.nodes": list},
)
