"""Root-parallel MCTS: n independent trees, one per CPU core.

The authors' earlier massively-parallel CPU scheme (and the CPU side of
the paper's Figure 7): every core builds its own tree from the same
root with its own RNG; at the end of the move budget the root children
statistics are summed move-by-move and the most-visited move is played.
There is no communication during the search, so virtual cores genuinely
run in parallel: each charges only its own core-clock.

The real-machine implementation here advances all trees in lockstep
rounds and batches their playouts through the vectorised engine --
results are identical to independent execution because the trees never
interact.
"""

from __future__ import annotations

from repro.core.base import Engine, validate_vote
from repro.core.results import INTEGRITY_EXTRA_KEYS, register_extra_keys
from repro.core.rounds import RootRound
from repro.games.base import GameState


class RootParallelMcts(Engine):
    """Independent-tree voting over ``n_trees`` virtual cores."""

    name = "root_parallel"
    round_policy = RootRound

    def __init__(
        self,
        game,
        seed,
        n_trees: int,
        vote: str = "sum",
        injector=None,
        integrity=None,
        **kwargs,
    ) -> None:
        if n_trees <= 0:
            raise ValueError(f"n_trees must be positive: {n_trees}")
        self.vote = validate_vote(vote)
        super().__init__(game, seed, **kwargs)
        self.n_trees = n_trees
        self.injector = injector
        self.integrity = integrity

    def _begin_session(self, state: GameState, budget_s: float) -> None:
        self._check_budget(budget_s, state)
        self._live = {
            "forest": self._make_forest(
                state,
                [self.rng.fork("tree", i) for i in range(self.n_trees)],
            ),
            "core_time": [0.0] * self.n_trees,
            "per_tree_iters": [0] * self.n_trees,
            "budget_s": budget_s,
            "iterations": 0,
            "simulations": 0,
            **self._playout_stream(),
            "integrity": self._make_guard(self.n_trees),
        }


register_extra_keys(
    RootParallelMcts.name,
    {
        "tree.depth": list,
        "tree.nodes": list,
        **INTEGRITY_EXTRA_KEYS,
    },
)
