"""Behavioural tests shared across every MCTS engine."""

import pytest

from repro.core import (
    BlockParallelMcts,
    HybridMcts,
    LeafParallelMcts,
    MultiGpuMcts,
    RootParallelMcts,
    SequentialMcts,
    TreeParallelMcts,
)
from repro.core.rounds import run_rounds
from repro.core.spec import make_engine
from repro.games import TicTacToe

TTT = TicTacToe()

ENGINES = [
    pytest.param(SequentialMcts, {}, id="sequential"),
    pytest.param(RootParallelMcts, {"n_trees": 4}, id="root"),
    pytest.param(TreeParallelMcts, {"n_workers": 4}, id="tree"),
    pytest.param(
        LeafParallelMcts, {"blocks": 2, "threads_per_block": 32}, id="leaf"
    ),
    pytest.param(
        BlockParallelMcts, {"blocks": 2, "threads_per_block": 32}, id="block"
    ),
    pytest.param(
        HybridMcts, {"blocks": 2, "threads_per_block": 32}, id="hybrid"
    ),
    pytest.param(
        MultiGpuMcts,
        {"n_gpus": 2, "blocks": 2, "threads_per_block": 32},
        id="multigpu",
    ),
]


def winning_position():
    """X to move; 8 wins immediately (X has 6,7 on the bottom row)."""
    s = TTT.initial_state()
    for m in (6, 0, 7, 1):
        s = TTT.apply(s, m)
    return s


def losing_if_ignored_position():
    """X to move; O threatens 0-1-2, X must block at 2 (X has 4, 6)."""
    s = TTT.initial_state()
    for m in (4, 0, 6, 1):
        s = TTT.apply(s, m)
    return s


@pytest.mark.parametrize("cls,kwargs", ENGINES)
class TestEngineContract:
    def test_finds_immediate_win(self, cls, kwargs):
        engine = cls(TTT, seed=5, **kwargs)
        result = engine.search(winning_position(), budget_s=0.004)
        assert result.move == 8

    def test_blocks_immediate_loss(self, cls, kwargs):
        engine = cls(TTT, seed=5, **kwargs)
        result = engine.search(
            losing_if_ignored_position(), budget_s=0.004
        )
        assert result.move == 2

    def test_deterministic_given_seed(self, cls, kwargs):
        r1 = cls(TTT, seed=9, **kwargs).search(
            TTT.initial_state(), budget_s=0.002
        )
        r2 = cls(TTT, seed=9, **kwargs).search(
            TTT.initial_state(), budget_s=0.002
        )
        assert r1.move == r2.move
        assert r1.simulations == r2.simulations
        assert dict(r1.stats) == dict(r2.stats)

    def test_budget_and_telemetry(self, cls, kwargs):
        engine = cls(TTT, seed=3, **kwargs)
        result = engine.search(TTT.initial_state(), budget_s=0.002)
        assert result.iterations > 0
        assert result.simulations >= result.iterations
        assert result.max_depth >= 1
        assert result.elapsed_s > 0
        assert result.root_visits > 0
        assert 0 <= result.move < 9

    def test_rejects_terminal_state(self, cls, kwargs):
        s = TTT.initial_state()
        for m in (0, 3, 1, 4, 2):
            s = TTT.apply(s, m)
        engine = cls(TTT, seed=3, **kwargs)
        with pytest.raises(ValueError):
            engine.search(s, budget_s=0.01)

    def test_rejects_nonpositive_budget(self, cls, kwargs):
        engine = cls(TTT, seed=3, **kwargs)
        with pytest.raises(ValueError):
            engine.search(TTT.initial_state(), budget_s=0.0)

    def test_max_iterations_cap(self, cls, kwargs):
        engine = cls(TTT, seed=3, max_iterations=5, **kwargs)
        result = engine.search(TTT.initial_state(), budget_s=10.0)
        assert result.iterations <= 5 * max(
            kwargs.get("n_trees", 1),
            kwargs.get("n_workers", 1),
            kwargs.get("n_gpus", 1),
        )


class TestEngineSpecifics:
    def test_sequential_one_sim_per_iteration(self):
        res = SequentialMcts(TTT, seed=1).search(
            TTT.initial_state(), 0.002
        )
        assert res.simulations == res.iterations

    def test_leaf_parallel_sims_scale_with_grid(self):
        res = LeafParallelMcts(
            TTT, seed=1, blocks=2, threads_per_block=32
        ).search(TTT.initial_state(), 0.002)
        assert res.simulations == res.iterations * 64

    def test_block_parallel_builds_one_tree_per_block(self):
        res = BlockParallelMcts(
            TTT, seed=1, blocks=4, threads_per_block=32
        ).search(TTT.initial_state(), 0.002)
        assert res.trees == 4
        assert res.simulations == res.iterations * 128

    def test_root_parallel_rejects_zero_trees(self):
        with pytest.raises(ValueError):
            RootParallelMcts(TTT, seed=1, n_trees=0)

    def test_tree_parallel_rejects_bad_args(self):
        with pytest.raises(ValueError):
            TreeParallelMcts(TTT, seed=1, n_workers=0)
        with pytest.raises(ValueError):
            TreeParallelMcts(TTT, seed=1, n_workers=2, virtual_loss=-1)

    def test_multigpu_rejects_zero_gpus(self):
        with pytest.raises(ValueError):
            MultiGpuMcts(
                TTT, seed=1, n_gpus=0, blocks=2, threads_per_block=32
            )

    def test_multigpu_aggregates_ranks(self):
        one = MultiGpuMcts(
            TTT, seed=1, n_gpus=1, blocks=2, threads_per_block=32,
            max_iterations=4,
        ).search(TTT.initial_state(), 0.01)
        four = MultiGpuMcts(
            TTT, seed=1, n_gpus=4, blocks=2, threads_per_block=32,
            max_iterations=4,
        ).search(TTT.initial_state(), 0.01)
        assert four.simulations > one.simulations
        assert four.extras["mpi.ranks"] == 4

    def test_multigpu_forwards_profiler_to_rank_engines(self):
        from repro.core.spec import make_engine
        from repro.util.profile import Profiler

        prof = Profiler()
        make_engine("multigpu:2x2x8", TTT, 1, profiler=prof).search(
            TTT.initial_state(), 0.002
        )
        for phase in ("select", "playout", "backprop"):
            assert prof.total_s(phase) > 0

    def test_hybrid_overlaps_cpu_work(self):
        res = HybridMcts(
            TTT, seed=1, blocks=2, threads_per_block=32
        ).search(TTT.initial_state(), 0.004)
        assert res.extras["cpu.iterations"] > 0
        # CPU overlap means strictly more simulations than GPU lanes
        assert res.simulations > res.iterations * 64

    def test_hybrid_deepens_trees_vs_block(self):
        block = BlockParallelMcts(
            TTT, seed=7, blocks=2, threads_per_block=32
        ).search(TTT.initial_state(), 0.004)
        hybrid = HybridMcts(
            TTT, seed=7, blocks=2, threads_per_block=32
        ).search(TTT.initial_state(), 0.004)
        assert hybrid.max_depth >= block.max_depth


@pytest.mark.parametrize("backend", ["node", "arena"])
@pytest.mark.parametrize("spec", ["root:3", "tree:3", "pipeline:3"])
def test_answers_must_match_the_requests_one_for_one(spec, backend):
    """The round driver pairs a round's answers with its pending
    leaves; an executor that hands back too few or too many is refused
    instead of ``zip``-ped short."""
    for answers in ([(1, 5), (0, 5)], [(1, 5)] * 4, []):
        engine = make_engine(f"{spec}@{backend}", TTT, 5)
        engine._begin_session(TTT.initial_state(), 1e-3, None)
        asked = []

        def executor(requests):
            asked.append(len(requests))
            return answers

        with pytest.raises(
            ValueError, match=f"{len(answers)} playout answers for 3 requests"
        ):
            run_rounds([engine.open_round()], executor)
        assert asked == [3]
