"""Multi-GPU MCTS over simulated MPI (paper Figure 9).

Each rank owns one virtual GPU running block-parallel MCTS; the root
state is broadcast, every rank searches independently for the move
budget, and per-move root statistics are summed with an MPI reduction
-- root parallelism across GPUs on top of block parallelism within
each, the exact structure of the paper's multi-GPU runs (112 blocks x
64 threads per GPU).
"""

from __future__ import annotations

import numpy as np

from repro.core.base import Engine
from repro.core.block_parallel import BlockParallelMcts
from repro.core.policy import select_move
from repro.core.results import (
    INTEGRITY_EXTRA_KEYS,
    SearchResult,
    register_extra_keys,
)
from repro.cpu import XEON_X5670
from repro.games.base import GameState
from repro.gpu import TESLA_C2050
from repro.mpi import MpiCluster, TSUBAME_IB
from repro.util.seeding import derive_seed


class MultiGpuMcts(Engine):
    """Rank-per-GPU root aggregation via the simulated cluster."""

    name = "multigpu"

    def __init__(
        self,
        game,
        seed,
        n_gpus: int,
        blocks: int,
        threads_per_block: int,
        device=TESLA_C2050,
        network=TSUBAME_IB,
        cost_model=XEON_X5670,
        injector=None,
        integrity=None,
        **kwargs,
    ) -> None:
        if n_gpus <= 0:
            raise ValueError(f"n_gpus must be positive: {n_gpus}")
        super().__init__(game, seed, cost_model=cost_model, **kwargs)
        self.n_gpus = n_gpus
        self.blocks = blocks
        self.threads_per_block = threads_per_block
        self.device = device
        self.network = network
        #: Optional :class:`~repro.faults.FaultInjector`: per-rank vote
        #: contributions may be dropped in the final reductions, and it
        #: is forwarded to every rank-local block-parallel engine so
        #: kernel-readback corruption / poison / audits apply there too.
        self.injector = injector
        self.integrity = integrity

    def _make_cluster(self) -> MpiCluster:
        return MpiCluster(
            self.n_gpus,
            self.network,
            derive_seed(self.seed, "cluster"),
            injector=self.injector,
        )

    def _rank_engine(self, ctx) -> BlockParallelMcts:
        return BlockParallelMcts(
            self.game,
            ctx.seed,
            blocks=self.blocks,
            threads_per_block=self.threads_per_block,
            device=self.device,
            cost_model=self.cost,
            ucb_c=self.ucb_c,
            clock=ctx.clock,
            final_policy=self.final_policy,
            max_iterations=self.max_iterations,
            selection_rule=self.selection_rule,
            backend=self.backend,
            playout=self.playout,
            profiler=self.profiler,
            injector=self.injector,
            integrity=self.integrity,
        )

    def search(self, state: GameState, budget_s: float) -> SearchResult:
        self._check_budget(budget_s, state)
        cluster = self._make_cluster()
        states = cluster.bcast(state, root=0)
        self._live = {
            "root_state": state,
            "cluster": cluster,
            "states": states,
            "budget_s": budget_s,
            "rank_results": [],
            "iterations": 0,
        }
        return self.resume()

    def resume(self) -> SearchResult:
        """The rank loop: each remaining rank's search, then the vote."""
        live = self._require_session()
        cluster = live["cluster"]
        rank_results = live["rank_results"]
        budget_s = live["budget_s"]
        # Rank-local searches run sequentially in real time, each
        # charging only its own clock; a completed rank is this
        # engine's checkpoint boundary.
        while len(rank_results) < self.n_gpus:
            ctx = cluster._contexts[len(rank_results)]
            engine = self._rank_engine(ctx)
            rank_results.append(
                engine.search(live["states"][ctx.rank], budget_s)
            )
            live["iterations"] = len(rank_results)
            self._after_iteration(len(rank_results))

        # Reduce per-move (visits, wins) as fixed-size arrays, the way
        # the MPI code ships them (move id indexes the buffer).
        num_moves = self.game.num_moves
        visit_bufs = []
        win_bufs = []
        for res in rank_results:
            visits = np.zeros(num_moves)
            wins = np.zeros(num_moves)
            for move, (v, w) in res.stats.items():
                visits[move] = v
                wins[move] = w
            visit_bufs.append(visits)
            win_bufs.append(wins)
        total_visits = cluster.reduce(visit_bufs, op="sum", root=0)
        total_wins = cluster.reduce(win_bufs, op="sum", root=0)

        stats = {
            m: (float(total_visits[m]), float(total_wins[m]))
            for m in range(num_moves)
            if total_visits[m] > 0
        }
        elapsed = cluster.elapsed
        self.clock.advance_to(max(self.clock.now, elapsed))
        result = SearchResult(
            move=select_move(stats, self.final_policy),
            stats=stats,
            iterations=sum(r.iterations for r in rank_results),
            simulations=sum(r.simulations for r in rank_results),
            max_depth=max(r.max_depth for r in rank_results),
            tree_nodes=sum(r.tree_nodes for r in rank_results),
            elapsed_s=elapsed,
            trees=self.n_gpus * self.blocks,
            extras={
                "mpi.ranks": self.n_gpus,
                "mpi.rank_simulations": [
                    r.simulations for r in rank_results
                ],
                "tree.depth": [
                    d
                    for r in rank_results
                    for d in r.extras["tree.depth"]
                ],
                "tree.nodes": [
                    n
                    for r in rank_results
                    for n in r.extras["tree.nodes"]
                ],
                "mpi.dropped_messages": cluster.dropped,
            },
            engine=self.name,
        )
        if self.injector is not None:
            merged: dict = {
                key: [] if kind is list else 0
                for key, kind in INTEGRITY_EXTRA_KEYS.items()
            }
            for rank, r in enumerate(rank_results):
                for key in INTEGRITY_EXTRA_KEYS:
                    value = r.extras.get(key)
                    if value is None:
                        continue
                    if key == "integrity.quarantined":
                        merged[key].extend(
                            rank * self.blocks + t for t in value
                        )
                    else:
                        merged[key] += value
            result.extras.update(merged)
        self._live = None
        return result

    # -- checkpointing -------------------------------------------------------

    def _snapshot_payload(self) -> dict:
        live = self._live
        cluster = live["cluster"]
        return {
            "root_state": live["root_state"],
            "budget_s": live["budget_s"],
            "rank_results": list(live["rank_results"]),
            "rank_clocks": [c.now for c in cluster.clocks],
            "iterations": live["iterations"],
        }

    def _restore_payload(self, payload: dict) -> dict:
        # The cluster is rebuilt from scratch: its seed ladder is a
        # pure function of the engine seed, and the broadcast consumes
        # no injector draws, so replaying it reproduces the exact
        # post-bcast clock times before the stored per-rank times are
        # re-applied (completed ranks advance past them; pending ranks
        # are already there).
        cluster = self._make_cluster()
        states = cluster.bcast(payload["root_state"], root=0)
        for clock, t in zip(cluster.clocks, payload["rank_clocks"]):
            clock.advance_to(max(clock.now, t))
        return {
            "root_state": payload["root_state"],
            "cluster": cluster,
            "states": states,
            "budget_s": payload["budget_s"],
            "rank_results": list(payload["rank_results"]),
            "iterations": payload["iterations"],
        }


register_extra_keys(
    MultiGpuMcts.name,
    {
        "mpi.ranks": int,
        "mpi.rank_simulations": list,
        "tree.depth": list,
        "tree.nodes": list,
        "mpi.dropped_messages": int,
        **INTEGRITY_EXTRA_KEYS,
    },
)
