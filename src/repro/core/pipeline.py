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

from repro.core.base import Engine, SearchGenerator
from repro.core.results import INTEGRITY_EXTRA_KEYS, register_extra_keys
from repro.core.tree_parallel import (
    check_snapshot_mode,
    resolve_shared_tree_mode,
)
from repro.games.base import GameState


class PipelineMcts(Engine):
    """Shared-tree MCTS with select(k+1) overlapping playout(k)."""

    name = "pipeline"

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

    def search_steps(
        self, state: GameState, budget_s: float
    ) -> SearchGenerator:
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
        return self._session_steps()

    def _session_steps(self) -> SearchGenerator:
        live = self._live
        tree = live["tree"]
        budget_s = live["budget_s"]
        cap = self._iteration_cap()
        guard = live.get("integrity")
        screen = guard if live.get("executor") is not None else None

        while (
            max(live["cpu_t"], live["dev_done"]) < budget_s
            and live["iterations"] < cap
        ):
            # Stage 1 -- select+expand round k's leaves from the stale
            # tree (round k-1's results are still in flight), charging
            # CPU time that overlaps the in-flight device batch.
            requests = []
            fresh = []  # (ref, depth) awaiting playout
            instant = []  # terminal selections retire this round
            sel_t = 0.0
            for _ in range(self.n_workers):
                ref, depth = tree.select_expand()
                tree.apply_virtual_loss(ref, self.virtual_loss)
                sel_t += self.cost.selection_time(depth)
                if tree.terminal_of(ref):
                    instant.append((ref, depth))
                else:
                    sel_t += self.cost.expand_s
                    requests.append(tree.state_of(ref))
                    fresh.append((ref, depth))
            sel_done = live["cpu_t"] + sel_t
            live["select_s"] += sel_t

            # Stage 2 -- backprop: round k-1's held results (gated on
            # the device finishing their batch) plus round k's
            # terminal selections.
            bp_t = 0.0
            for (ref, depth), (winner, plies) in zip(
                live["pending"], live["held"]
            ):
                tree.revert_virtual_loss(ref, self.virtual_loss)
                tree.backprop_winner(ref, winner)
                bp_t += (
                    self.cost.backprop_time(depth)
                    + self.cost.fixed_per_iteration_s
                )
                live["iterations"] += 1
                live["simulations"] += 1
            for ref, depth in instant:
                tree.revert_virtual_loss(ref, self.virtual_loss)
                tree.backprop_winner(ref, tree.winner_of(ref))
                bp_t += (
                    self.cost.backprop_time(depth)
                    + self.cost.fixed_per_iteration_s
                )
                live["iterations"] += 1
                live["simulations"] += 1
            bp_start = (
                max(sel_done, live["dev_done"])
                if live["pending"]
                else sel_done
            )
            live["cpu_t"] = bp_start + bp_t
            live["backprop_s"] += bp_t

            # Stage 3 -- issue round k's playouts; the device starts
            # once it is free and the selections exist.  Results are
            # *held*: they backprop at round k+1's stage 2.
            if requests:
                launch = max(sel_done, live["dev_done"])
                results = yield requests
                if screen is not None:
                    results = yield from self._screen_results(
                        requests, results, screen
                    )
                play_t = max(
                    self.cost.playout_time(plies)
                    for _, plies in self._answers(requests, results)
                )
                live["dev_done"] = launch + play_t
                live["playout_s"] += play_t
                live["pending"] = fresh
                live["held"] = list(results)
            else:
                live["pending"] = []
                live["held"] = []
            live["rounds"] += 1
            # Round boundary: the new batch is in flight (its markers
            # outstanding), everything else is consistent -- snapshots
            # here encode the in-flight refs as stable tokens.
            self._after_iteration(live["iterations"], tree)

        # Drain: retire the final in-flight batch.
        bp_t = 0.0
        for (ref, depth), (winner, plies) in zip(
            live["pending"], live["held"]
        ):
            tree.revert_virtual_loss(ref, self.virtual_loss)
            tree.backprop_winner(ref, winner)
            bp_t += (
                self.cost.backprop_time(depth)
                + self.cost.fixed_per_iteration_s
            )
            live["iterations"] += 1
            live["simulations"] += 1
        live["pending"] = []
        live["held"] = []
        live["cpu_t"] = max(live["cpu_t"], live["dev_done"]) + bp_t
        live["backprop_s"] += bp_t

        elapsed = max(live["cpu_t"], live["dev_done"])
        self.clock.advance(elapsed)
        cpu_busy = live["select_s"] + live["backprop_s"]
        extras = {
            "pipeline.rounds": live["rounds"],
            "pipeline.select_s": live["select_s"],
            "pipeline.backprop_s": live["backprop_s"],
            "pipeline.playout_s": live["playout_s"],
            "pipeline.cpu_occupancy": (
                cpu_busy / elapsed if elapsed > 0 else 0.0
            ),
            "pipeline.device_occupancy": (
                live["playout_s"] / elapsed if elapsed > 0 else 0.0
            ),
        }
        return self._finish(tree, elapsed, extras)

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
