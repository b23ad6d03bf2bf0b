"""Sequential (single-core) MCTS -- the paper's opponent and baseline.

One iteration = select, expand one node, one random playout,
backpropagate; time is charged per iteration through the CPU cost
model.  This is the player every GPU configuration is measured against
in the paper's Figures 6 and 7.
"""

from __future__ import annotations

from repro.core.base import Engine, ScalarExecutor
from repro.core.results import register_extra_keys
from repro.core.rounds import SequentialRound
from repro.games.base import GameState


class SequentialMcts(Engine):
    """Plain UCT on one virtual CPU core."""

    name = "sequential"
    round_policy = SequentialRound

    def _own_executor(self) -> ScalarExecutor:
        # Drawn before the session's tree: fork("playout") comes
        # before fork("tree").
        return ScalarExecutor(self.game, self.rng.fork("playout"))

    def _begin_session(
        self, state: GameState, budget_s: float, executor
    ) -> None:
        self._check_budget(budget_s, state)
        self._live = {
            "tree": self._make_forest(state, [self.rng.fork("tree")]),
            "start_s": self.clock.now,
            "budget_s": budget_s,
            "iterations": 0,
            "simulations": 0,
            "executor": executor,
        }


register_extra_keys(
    SequentialMcts.name,
    {"tree.depth": list, "tree.nodes": list},
)
