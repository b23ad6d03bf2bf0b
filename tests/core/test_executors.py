"""Tests for the playout executors behind the round seam."""

from repro.core.base import BatchExecutor, ScalarExecutor, tally
from repro.games import Reversi, TicTacToe
from repro.rng import XorShift64Star

import numpy as np


class TestScalarExecutor:
    def test_one_result_per_state(self):
        game = TicTacToe()
        run = ScalarExecutor(game, XorShift64Star(1))
        states = [game.initial_state()] * 5
        results = run(states)
        assert len(results) == 5
        for winner, plies in results:
            assert winner in (-1, 0, 1)
            assert 5 <= plies <= 9

    def test_empty(self):
        game = TicTacToe()
        run = ScalarExecutor(game, XorShift64Star(1))
        assert run([]) == []


class TestBatchExecutor:
    def test_small_batches_use_scalar_fallback(self):
        run = BatchExecutor("reversi", seed=3)
        game = Reversi()
        results = run([game.initial_state()] * 3)
        assert len(results) == 3
        for winner, plies in results:
            assert winner in (-1, 0, 1)
            assert plies > 0

    def test_large_batches_go_vectorised(self):
        run = BatchExecutor("reversi", seed=3)
        game = Reversi()
        results = run([game.initial_state()] * 64)
        assert len(results) == 64
        winners = np.array([w for w, _ in results])
        b, w, d = tally(winners)
        assert b + w + d == 64
        # sanity: random Reversi from the start is not one-sided
        assert 10 < b < 54

    def test_deterministic_per_call_sequence(self):
        a = BatchExecutor("reversi", seed=9)
        b = BatchExecutor("reversi", seed=9)
        game = Reversi()
        states = [game.initial_state()] * 32
        assert a(states) == b(states)
        assert a(states) == b(states)  # second call also aligned

    def test_seed_changes_results(self):
        game = Reversi()
        states = [game.initial_state()] * 32
        a = BatchExecutor("reversi", seed=1)(states)
        b = BatchExecutor("reversi", seed=2)(states)
        assert a != b

    def test_empty(self):
        run = BatchExecutor("tictactoe", seed=1)
        assert run([]) == []


class TestStatisticalAgreement:
    def test_scalar_and_batch_paths_agree_on_win_rate(self):
        """Both executors sample the same uniform-playout distribution;
        their black-win rates must agree within noise."""
        game = Reversi()
        state = game.initial_state()
        scalar = ScalarExecutor(game, XorShift64Star(5))
        batch = BatchExecutor("reversi", seed=5)
        n = 300
        s_wins = sum(
            1 for w, _ in scalar([state] * n) if w == 1
        )
        b_wins = sum(1 for w, _ in batch([state] * n) if w == 1)
        assert abs(s_wins - b_wins) / n < 0.15


class TestTally:
    def test_counts(self):
        b, w, d = tally(np.array([1, 1, -1, 0, 0, 0]))
        assert (b, w, d) == (2, 1, 3)
