"""Block-parallel MCTS -- the paper's contribution.

One CPU control thread owns one MCTS tree per GPU *block*.  Each
iteration the CPU walks every tree (selection + expansion -- this is
the *sequential part* whose cost grows with the number of blocks and
bends the paper's Figure 5 throughput curves down), then launches a
single kernel in which block ``b``'s threads all run playouts from tree
``b``'s selected leaf.  Results are reduced per block, backpropagated
per tree, and the final move is the root-parallel vote over all trees.

The scheme combines leaf parallelism's sample width with root
parallelism's independent exploration, with zero inter-block
communication -- which is exactly why it maps onto SIMT hardware.

With a :class:`~repro.faults.FaultInjector` attached, every kernel
readback is screened at the host boundary (see
:mod:`repro.integrity`): rejected results are retried by re-running the
kernel (the GPU's lane RNGs have advanced, so the retry is fresh work,
and its playouts are charged), then degraded to a neutral all-draws
batch; the ``poison=tree:K`` fault and the amortised per-tree audit /
quarantine run at iteration boundaries.  Without an injector none of
these paths execute and the engine is bit-identical to before.
"""

from __future__ import annotations

import numpy as np

from repro.core.base import Engine, validate_vote
from repro.core.results import (
    INTEGRITY_EXTRA_KEYS,
    SearchResult,
    register_extra_keys,
)
from repro.cpu import XEON_X5670
from repro.games.base import GameState
from repro.gpu import TESLA_C2050


class BlockParallelMcts(Engine):
    """One tree per block; block threads simulate their tree's leaf."""

    name = "block_parallel"

    def __init__(
        self,
        game,
        seed,
        blocks: int,
        threads_per_block: int,
        device=TESLA_C2050,
        cost_model=XEON_X5670,
        vote: str = "sum",
        injector=None,
        integrity=None,
        **kwargs,
    ) -> None:
        self.vote = validate_vote(vote)
        super().__init__(game, seed, cost_model=cost_model, **kwargs)
        self.injector = injector
        self.integrity = integrity
        self._attach_gpu(blocks, threads_per_block, device)

    def search(self, state: GameState, budget_s: float) -> SearchResult:
        self._check_budget(budget_s, state)
        blocks = self.config.blocks
        self._live = {
            "forest": self._make_forest(
                state, [self.rng.fork("tree", b) for b in range(blocks)]
            ),
            "start_s": self.clock.now,
            "budget_s": budget_s,
            "iterations": 0,
            "simulations": 0,
            "integrity": self._make_guard(blocks),
        }
        return self._session_run()

    def _session_run(self) -> SearchResult:
        live = self._live
        forest = live["forest"]
        budget_s = live["budget_s"]
        blocks = self.config.blocks
        tpb = self.config.threads_per_block
        prof = self.profiler
        guard = live["integrity"]
        cap = self._iteration_cap()
        while (
            self.clock.now - live["start_s"] < budget_s
            and live["iterations"] < cap
        ) or live["iterations"] == 0:
            # Sequential part: the one controlling CPU walks each tree
            # (one lockstep round on the arena backend) and hands the
            # kernel the leaves' positions (there, three columns).
            with prof.phase("select"):
                leaves, depths = forest.select_expand_all()
                positions = forest.positions_of(leaves)
                self._charge_tree_control(depths)
            with prof.phase("playout"):
                if guard is None:
                    result = self.gpu.run_playouts(positions, self.config)
                    winners = result.winners
                    live["simulations"] += result.playouts
                else:
                    winners = self._screened_winners(positions, live, guard)
            with prof.phase("backprop"):
                per_block = winners.reshape(blocks, tpb)
                forest.backprop_block(leaves, tpb, per_block)
            live["iterations"] += 1
            self._after_iteration(live["iterations"], forest, float(tpb))
        return self._finish(
            forest,
            self.clock.now - live["start_s"],
            {"gpu.kernels": self.gpu.stats.kernels_launched},
        )

    def _screened_winners(
        self, positions, live: dict, guard
    ) -> np.ndarray:
        """Run the kernel, screen its readback, and retry rejects.

        Each retry re-runs the kernel -- the device RNGs have
        advanced, so it is fresh (charged) work.  When the retry
        budget runs out the batch degrades to all-draws, exactly the
        dropped-playout-batch model the serving layer uses for lost
        results.
        """
        blocks = self.config.blocks
        tpb = self.config.threads_per_block
        for attempt in range(guard.policy.max_result_retries + 1):
            result = self.gpu.run_playouts(positions, self.config)
            live["simulations"] += result.playouts
            winners, ok = guard.screen_block(result.winners, blocks, tpb)
            if ok:
                return winners
        guard.give_up()
        return np.zeros(blocks * tpb, dtype=np.int8)

register_extra_keys(
    BlockParallelMcts.name,
    {
        "gpu.kernels": int,
        "tree.depth": list,
        "tree.nodes": list,
        **INTEGRITY_EXTRA_KEYS,
    },
)
