"""Tests for the one round driver (``repro.core.rounds.run_rounds``).

``run_rounds`` advances many engine sessions together -- one executor
call over all their requests per round -- until each is out of budget;
an engine's ``search()``, the arena cohort and (through
``advance_rounds``) the search service's tick all run on it.
"""

import pytest

from repro.core import SequentialMcts, make_engine
from repro.core.base import BatchExecutor
from repro.core.rounds import run_rounds
from repro.games import TicTacToe
from repro.util.seeding import derive_seed

GAME = TicTacToe()


@pytest.fixture
def executor():
    return BatchExecutor("tictactoe", seed=99)


def opened(engine, budget_s=0.002):
    """``engine``'s round over a new session the driver answers."""
    engine._begin_session(GAME.initial_state(), budget_s, None)
    return engine.open_round()


class TestRunRounds:
    def test_single_session_matches_engine_result(self, executor):
        engine = SequentialMcts(GAME, seed=4)
        (result,) = run_rounds([opened(engine)], executor)
        assert result.simulations > 0

    def test_many_sessions_all_complete(self, executor):
        rounds = [
            opened(SequentialMcts(GAME, seed=i), 0.001 + 0.001 * i)
            for i in range(5)
        ]
        results = run_rounds(rounds, executor)
        assert len(results) == 5
        for res in results:
            assert res.move in range(9)

    def test_empty_input(self, executor):
        assert run_rounds([], executor) == []

    def test_matches_per_key_results_and_is_deterministic(self):
        def run():
            rounds = [
                opened(make_engine("sequential", GAME, derive_seed(9, i)))
                for i in range(3)
            ]
            return run_rounds(rounds, BatchExecutor("tictactoe", 5))

        first, second = run(), run()
        assert len(first) == 3
        for a, b in zip(first, second):
            assert a.move == b.move
            assert a.simulations == b.simulations

    def test_one_executor_call_per_round(self):
        """Every session's requests ride one call, in session order."""
        rounds = [
            opened(make_engine(spec, GAME, 3))
            for spec in ("root:3@arena", "sequential", "tree:2@arena")
        ]
        executor = BatchExecutor("tictactoe", 5)
        calls = []

        def spy(requests):
            calls.append(len(requests))
            return executor(requests)

        run_rounds(rounds, spy)
        assert calls[0] == 3 + 1 + 2
