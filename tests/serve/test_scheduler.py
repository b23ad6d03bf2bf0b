"""Tests for the merged scheduling primitives (repro.serve.scheduler)."""

import pytest

from repro.core import make_engine
from repro.core.base import BatchExecutor
from repro.games import TicTacToe
from repro.gpu import TESLA_C2050, DevicePool
from repro.serve import (
    GeneratorPool,
    LaneBatcher,
    drive_generators,
    launch_config_for,
)
from repro.util.clock import Clock
from repro.util.seeding import derive_seed


def echo_gen(requests, out):
    """Yields each round's requests, accumulates answers, returns sum."""
    total = 0
    for round_reqs in requests:
        answers = yield round_reqs
        assert len(answers) == len(round_reqs)
        out.append(list(answers))
        total += sum(answers)
    return total


class TestGeneratorPool:
    def test_merged_rounds_slice_answers_correctly(self):
        seen_a, seen_b = [], []
        pool = GeneratorPool()
        pool.add("a", echo_gen([[1, 2], [3]], seen_a))
        pool.add("b", echo_gen([[10], [20, 30]], seen_b))
        assert pool.pending == ("a", "b")
        # Round 1: a asks for 2 lanes, b for 1.
        merged = pool.requests_for("a") + pool.requests_for("b")
        assert merged == [1, 2, 10]
        assert not pool.step("a", [100, 200])
        assert not pool.step("b", [300])
        # Round 2: deliver and finish both.
        assert pool.step("a", [400])
        assert pool.step("b", [500, 600])
        assert seen_a == [[100, 200], [400]]
        assert seen_b == [[300], [500, 600]]
        assert pool.results == {"a": 700, "b": 1400}
        assert pool.pending == ()

    def test_immediately_finished_generator(self):
        pool = GeneratorPool()
        assert pool.add("empty", echo_gen([], [])) is False
        assert pool.results["empty"] == 0

    def test_duplicate_key_rejected(self):
        pool = GeneratorPool()
        pool.add("a", echo_gen([[1]], []))
        with pytest.raises(ValueError, match="duplicate"):
            pool.add("a", echo_gen([[1]], []))

    def test_cancel_removes_without_result(self):
        pool = GeneratorPool()
        pool.add("a", echo_gen([[1], [2]], []))
        pool.cancel("a")
        assert pool.pending == ()
        assert "a" not in pool.results


class TestDriveGenerators:
    def test_matches_per_key_results_and_is_deterministic(self):
        game = TicTacToe()

        def run():
            gens = {
                f"g{i}": make_engine(
                    "sequential", game, derive_seed(9, i)
                ).search_steps(game.initial_state(), 0.002)
                for i in range(3)
            }
            return drive_generators(
                gens, BatchExecutor("tictactoe", 5)
            )

        first, second = run(), run()
        assert set(first) == {"g0", "g1", "g2"}
        for key in first:
            assert first[key].move == second[key].move
            assert first[key].simulations == second[key].simulations


class TestLaunchConfig:
    def test_warp_aligned_small_batch(self):
        cfg = launch_config_for(10)
        assert (cfg.blocks, cfg.threads_per_block) == (1, 32)

    def test_wide_batch_splits_into_blocks(self):
        cfg = launch_config_for(1000)
        assert cfg.threads_per_block == 128
        assert cfg.blocks == 8
        assert cfg.total_threads >= 1000

    def test_zero_lanes_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            launch_config_for(0)


class TestLaneBatcher:
    def make(self, n_devices=2):
        clock = Clock()
        pool = DevicePool((TESLA_C2050,) * n_devices, clock)
        return LaneBatcher(pool, seed=3), pool, clock

    def states(self, n):
        game = TicTacToe()
        return [game.initial_state()] * n

    def test_answers_aligned_with_states(self):
        batcher, _, _ = self.make()
        answers, records = batcher.execute("tictactoe", self.states(5))
        assert len(answers) == 5
        assert all(
            winner in (-1, 0, 1) and plies >= 0
            for winner, plies in answers
        )
        assert sum(r.lanes for r in records) == 5

    def test_deterministic_across_fresh_batchers(self):
        a, _, _ = self.make()
        b, _, _ = self.make()
        ra, _ = a.execute("tictactoe", self.states(7))
        rb, _ = b.execute("tictactoe", self.states(7))
        assert ra == rb

    def test_small_batches_never_split(self):
        batcher, _, _ = self.make(n_devices=4)
        _, records = batcher.execute("tictactoe", self.states(32))
        assert len(records) == 1

    def test_wide_batches_split_across_devices(self):
        batcher, pool, _ = self.make(n_devices=2)
        _, records = batcher.execute("tictactoe", self.states(200))
        assert len(records) == 2
        assert {r.lease.device_id for r in records} == {0, 1}

    def test_empty_batch_is_free(self):
        batcher, _, _ = self.make()
        assert batcher.execute("tictactoe", []) == ([], [])
        assert batcher.launch_count == 0
        assert batcher.mean_lanes_per_launch == 0.0

    def test_round_seeds_are_the_documented_derivation(self):
        """The per-game prefix is folded once; the seeds are still
        ``derive_seed(batcher.seed, game, round)``, rounds counted per
        game."""
        batcher, _, _ = self.make()
        for r in (1, 2, 3):
            for game in ("tictactoe", "connect4"):
                assert batcher._round_seed(game) == derive_seed(
                    batcher.seed, game, r
                )
