"""Sequential (single-core) MCTS -- the paper's opponent and baseline.

One iteration = select, expand one node, one random playout,
backpropagate; time is charged per iteration through the CPU cost
model.  This is the player every GPU configuration is measured against
in the paper's Figures 6 and 7.
"""

from __future__ import annotations

from repro.core.base import Engine, ScalarExecutor, drive_search
from repro.core.results import SearchResult, register_extra_keys
from repro.core.rounds import SequentialRound
from repro.games.base import GameState


class SequentialMcts(Engine):
    """Plain UCT on one virtual CPU core."""

    name = "sequential"
    round_policy = SequentialRound

    def search(self, state: GameState, budget_s: float) -> SearchResult:
        # Executor before session setup: preserves the historical fork
        # order (fork("playout") drawn before fork("tree")).
        executor = ScalarExecutor(self.game, self.rng.fork("playout"))
        self._pending_executor = executor
        return drive_search(self.search_steps(state, budget_s), executor)

    def _begin_session(self, state: GameState, budget_s: float) -> None:
        self._check_budget(budget_s, state)
        self._live = {
            "tree": self._make_forest(state, [self.rng.fork("tree")]),
            "start_s": self.clock.now,
            "budget_s": budget_s,
            "iterations": 0,
            "simulations": 0,
            "executor": self._take_pending_executor(),
        }


register_extra_keys(
    SequentialMcts.name,
    {"tree.depth": list, "tree.nodes": list},
)
