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

from repro.core.base import Engine, SearchGenerator, validate_vote
from repro.core.results import INTEGRITY_EXTRA_KEYS, register_extra_keys
from repro.games.base import GameState


class RootParallelMcts(Engine):
    """Independent-tree voting over ``n_trees`` virtual cores."""

    name = "root_parallel"

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

    search = Engine._search_batched

    def search_steps(
        self, state: GameState, budget_s: float
    ) -> SearchGenerator:
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
            "executor": self._take_pending_executor(),
            "integrity": self._make_guard(self.n_trees),
        }
        return self._session_steps()

    def _session_steps(self) -> SearchGenerator:
        live = self._live
        forest = live["forest"]
        core_time = live["core_time"]
        per_tree_iters = live["per_tree_iters"]
        budget_s = live["budget_s"]
        cap = self._iteration_cap()
        iterations = live["iterations"]
        simulations = live["simulations"]
        guard = live.get("integrity")
        # Screen playout answers only when this engine drives its own
        # executor; externally-driven sessions (the service) are
        # screened once at the merged-launch readback by the lane
        # batcher -- screening here too would double-draw corruption.
        screen = guard if live.get("executor") is not None else None

        iteration_time = self.cost.iteration_time
        while True:
            active = [
                i
                for i in range(self.n_trees)
                if core_time[i] < budget_s and per_tree_iters[i] < cap
            ]
            if not active:
                break
            # Independent trees: selecting them all first, then
            # resolving terminals, is identical to the interleaved
            # order (no tree ever observes another's statistics).
            refs, depths, states, terminal = forest.select_round(active)
            iterations += len(active)
            simulations += len(active)
            for i in active:
                per_tree_iters[i] += 1
            if any(terminal):
                # A terminal leaf is its own answer; the other rows go
                # on to a playout.
                for i, node, depth, over in zip(
                    active, refs, depths, terminal
                ):
                    if over:
                        forest.backprop_winner(node, forest.winner_of(node))
                        core_time[i] += iteration_time(depth, 0)
                active, refs, depths, states = (
                    [x for x, over in zip(column, terminal) if not over]
                    for column in (active, refs, depths, states)
                )
            if states:
                results = yield states
                if screen is not None:
                    results = yield from self._screen_results(
                        states, results, screen
                    )
                winners, plies = zip(*self._answers(states, results))
                forest.backprop_winners(refs, winners)
                for i, depth, n in zip(active, depths, plies):
                    core_time[i] += iteration_time(depth, n)
            live["iterations"] = iterations
            live["simulations"] = simulations
            self._after_iteration(iterations, forest)

        # Wall time of the parallel search = the slowest core.
        self.clock.advance(max(core_time))
        return self._finish(forest, max(core_time))


register_extra_keys(
    RootParallelMcts.name,
    {
        "tree.depth": list,
        "tree.nodes": list,
        **INTEGRITY_EXTRA_KEYS,
    },
)
