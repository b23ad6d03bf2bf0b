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

from repro.core.base import GpuEngine, validate_vote
from repro.core.results import INTEGRITY_EXTRA_KEYS, register_extra_keys
from repro.core.rounds import BlockRound
from repro.games.base import GameState


class BlockParallelMcts(GpuEngine):
    """One tree per block; block threads simulate their tree's leaf."""

    name = "block_parallel"
    round_policy = BlockRound

    def __init__(
        self,
        *args,
        vote: str = "sum",
        injector=None,
        integrity=None,
        **kwargs,
    ) -> None:
        self.vote = validate_vote(vote)
        super().__init__(*args, **kwargs)
        self.injector = injector
        self.integrity = integrity

    def _begin_session(self, state: GameState, budget_s: float) -> None:
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


register_extra_keys(
    BlockParallelMcts.name,
    {
        "gpu.kernels": int,
        "tree.depth": list,
        "tree.nodes": list,
        **INTEGRITY_EXTRA_KEYS,
    },
)
