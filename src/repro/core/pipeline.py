"""Pipelined MCTS: select/expand/playout/backprop as software stages.

The 3PMCTS decomposition (Mirsoleimani et al., "Structured Parallel
Programming for Monte Carlo Tree Search") restructures the MCTS loop
as an *operation pipeline* instead of ``n`` independent iteration
loops: while the device simulates round ``k``'s playouts, the CPU is
already selecting and expanding round ``k+1``'s leaves from the shared
tree.  One engine round is therefore:

1. **select+expand** -- up to ``n_workers`` leaves chosen from the
   *stale* tree (round ``k-1``'s results have not landed yet -- that
   one-round staleness is the price of overlap) and marked in flight
   (``@vloss`` phantom losses or ``@wuct`` unobserved counts);
2. **backprop** -- round ``k-1``'s playout results, held since the
   previous round, retire: markers come off, real statistics go in;
3. **playout** -- round ``k``'s batch is issued to the executor; its
   results are held for the next round's backprop stage.

Virtual-clock accounting models the overlap: the CPU select stage of
round ``k`` runs concurrently with the device playout of round
``k-1``; backprop must wait for the device (it consumes the results);
the device starts round ``k``'s batch once both it and the selections
are ready.  In steady state the round time is ``max(cpu stage time,
device playout time)`` rather than their sum -- per-stage busy time
and occupancy land in the result extras (``pipeline.*``).

Checkpointing snapshots mid-pipeline state: in-flight refs are encoded
as stable tokens (arena slots / BFS indices) and the held result batch
rides the payload, so crash -> restore -> resume is bit-identical even
with a full pipeline.
"""

from __future__ import annotations

from repro.core.base import Engine
from repro.core.results import INTEGRITY_EXTRA_KEYS, register_extra_keys
from repro.core.rounds import PipelineRound
from repro.core.tree_parallel import (
    check_snapshot_mode,
    resolve_shared_tree_mode,
)
from repro.games.base import GameState


class PipelineMcts(Engine):
    """Shared-tree MCTS with select(k+1) overlapping playout(k)."""

    name = "pipeline"
    round_policy = PipelineRound

    def __init__(
        self,
        game,
        seed,
        n_workers: int,
        mode: str = "vloss",
        virtual_loss: "float | None" = None,
        injector=None,
        integrity=None,
        **kwargs,
    ) -> None:
        if n_workers <= 0:
            raise ValueError(f"n_workers must be positive: {n_workers}")
        self.mode, marker = resolve_shared_tree_mode(mode, virtual_loss)
        super().__init__(game, seed, **kwargs)
        self.n_workers = n_workers
        self.virtual_loss = marker
        self.injector = injector
        self.integrity = integrity

    search = Engine._search_batched

    def _begin_session(self, state: GameState, budget_s: float) -> None:
        self._check_budget(budget_s, state)
        self._live = {
            "mode": self.mode,
            "tree": self._make_forest(
                state, [self.rng.fork("tree")], parallel_mode=self.mode
            ),
            "pending": [],  # in-flight (ref, depth) from last round
            "held": [],  # their (winner, plies), held for backprop
            "cpu_t": 0.0,  # CPU stage cursor (select + backprop)
            "dev_done": 0.0,  # completion time of the in-flight batch
            "select_s": 0.0,
            "backprop_s": 0.0,
            "playout_s": 0.0,
            "rounds": 0,
            "budget_s": budget_s,
            "iterations": 0,
            "simulations": 0,
            "executor": self._take_pending_executor(),
            "integrity": self._make_guard(1),
        }

    # -- checkpointing -------------------------------------------------------

    # In-flight refs cross the snapshot boundary as the tree's stable
    # tokens (arena slots / BFS indices); the rest is the generic codec.

    def _snapshot_payload(self) -> dict:
        payload = super()._snapshot_payload()
        tree = self._live["tree"]
        payload["pending"] = [
            (tree.ref_token(ref), depth) for ref, depth in payload["pending"]
        ]
        return payload

    def _restore_payload(self, payload: dict) -> dict:
        check_snapshot_mode(payload, self.mode)
        live = super()._restore_payload(payload)
        tree = live["tree"]
        live["pending"] = [
            (tree.ref_from_token(token), depth)
            for token, depth in live["pending"]
        ]
        return live


register_extra_keys(
    PipelineMcts.name,
    {
        "tree.depth": list,
        "tree.nodes": list,
        "pipeline.rounds": int,
        "pipeline.select_s": float,
        "pipeline.backprop_s": float,
        "pipeline.playout_s": float,
        "pipeline.cpu_occupancy": float,
        "pipeline.device_occupancy": float,
        **INTEGRITY_EXTRA_KEYS,
    },
)
