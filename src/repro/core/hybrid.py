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

from repro.core.base import Engine
from repro.core.results import SearchResult, register_extra_keys
from repro.cpu import XEON_X5670
from repro.games.base import GameState
from repro.gpu import TESLA_C2050


class HybridMcts(Engine):
    """Asynchronous block-parallel GPU + overlapped CPU iterations."""

    name = "hybrid"

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
        return self._session_run()

    def _session_run(self) -> SearchResult:
        live = self._live
        forest = live["forest"]
        playout_rng = live["playout_rng"]
        budget_s = live["budget_s"]
        blocks = self.config.blocks
        tpb = self.config.threads_per_block
        prof = self.profiler
        cap = self._iteration_cap()
        gpu_iterations = live["iterations"]
        cpu_iterations = live["cpu_iterations"]
        simulations = live["simulations"]
        next_tree = live["next_tree"]

        while (
            self.clock.now - live["start_s"] < budget_s
            and gpu_iterations < cap
        ) or gpu_iterations == 0:
            with prof.phase("select"):
                leaves, depths = forest.select_expand_all()
                positions = forest.positions_of(leaves)
                self._charge_tree_control(depths)
            event = self.gpu.launch_async(positions, self.config)
            # The GPU is busy; the CPU keeps deepening the same trees
            # (round-robin; the shared playout RNG makes this order
            # part of the engine's deterministic contract).
            with prof.phase("cpu_overlap"):
                while not self.gpu.stream.query(event):
                    t = next_tree
                    next_tree = (next_tree + 1) % blocks
                    node, depth = forest.select_expand(t)
                    if forest.terminal_of(node):
                        forest.backprop_winner(node, forest.winner_of(node))
                        plies = 0
                    else:
                        winner, plies = self.game.playout(
                            forest.state_of(node), playout_rng
                        )
                        forest.backprop_winner(node, winner)
                    self.clock.advance(
                        self.cost.iteration_time(depth, plies)
                    )
                    cpu_iterations += 1
                    simulations += 1
            result = self.gpu.stream.synchronize(event)
            with prof.phase("backprop"):
                per_block = result.winners.reshape(blocks, tpb)
                forest.backprop_block(leaves, tpb, per_block)
            gpu_iterations += 1
            simulations += result.playouts
            live["iterations"] = gpu_iterations
            live["cpu_iterations"] = cpu_iterations
            live["simulations"] = simulations
            live["next_tree"] = next_tree
            # The kernel was just synchronised, so the stream is idle:
            # a clean checkpoint boundary.
            self._after_iteration(gpu_iterations)

        return self._finish(
            forest,
            self.clock.now - live["start_s"],
            {
                "cpu.iterations": cpu_iterations,
                "gpu.kernels": self.gpu.stats.kernels_launched,
            },
        )

register_extra_keys(
    HybridMcts.name,
    {
        "cpu.iterations": int,
        "gpu.kernels": int,
        "tree.depth": list,
        "tree.nodes": list,
    },
)
