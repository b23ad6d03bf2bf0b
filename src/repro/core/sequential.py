"""Sequential (single-core) MCTS -- the paper's opponent and baseline.

One iteration = select, expand one node, one random playout,
backpropagate; time is charged per iteration through the CPU cost
model.  This is the player every GPU configuration is measured against
in the paper's Figures 6 and 7.
"""

from __future__ import annotations

from repro.core.base import Engine, ScalarExecutor, SearchGenerator, drive_search
from repro.core.results import SearchResult, register_extra_keys
from repro.games.base import GameState


class SequentialMcts(Engine):
    """Plain UCT on one virtual CPU core."""

    name = "sequential"

    def search(self, state: GameState, budget_s: float) -> SearchResult:
        # Executor before session setup: preserves the historical fork
        # order (fork("playout") drawn before fork("tree")).
        executor = ScalarExecutor(self.game, self.rng.fork("playout"))
        self._pending_executor = executor
        return drive_search(self.search_steps(state, budget_s), executor)

    def search_steps(
        self, state: GameState, budget_s: float
    ) -> SearchGenerator:
        self._check_budget(budget_s, state)
        self._live = {
            "tree": self._make_forest(state, [self.rng.fork("tree")]),
            "start_s": self.clock.now,
            "budget_s": budget_s,
            "iterations": 0,
            "simulations": 0,
            "executor": self._take_pending_executor(),
        }
        return self._session_steps()

    def _session_steps(self) -> SearchGenerator:
        live = self._live
        tree = live["tree"]
        cap = self._iteration_cap()
        while (
            self.clock.now - live["start_s"] < live["budget_s"]
            and live["iterations"] < cap
        ):
            node, depth = tree.select_expand()
            if tree.terminal_of(node):
                tree.backprop_winner(node, tree.winner_of(node))
                plies = 0
            else:
                (result,) = yield (tree.state_of(node),)
                winner, plies = result
                tree.backprop_winner(node, winner)
            self.clock.advance(self.cost.iteration_time(depth, plies))
            live["iterations"] += 1
            live["simulations"] += 1
            self._after_iteration(live["iterations"])
        return self._finish(tree, self.clock.now - live["start_s"])

register_extra_keys(
    SequentialMcts.name,
    {"tree.depth": list, "tree.nodes": list},
)
