"""Tests for the one round driver (``repro.core.rounds.run_rounds``).

``run_rounds`` advances many engine sessions together -- one executor
call over all their requests per round -- until each is out of budget;
an engine's ``search()``, the arena cohort and (through
``advance_rounds``) the search service's tick all run on it.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import SequentialMcts, make_engine
from repro.core.base import BatchExecutor
from repro.core.rounds import run_rounds
from repro.games import TicTacToe, make_game
from repro.rng import XorShift64Star
from repro.util.seeding import derive_seed

GAME = TicTacToe()


@pytest.fixture
def executor():
    return BatchExecutor(GAME)


def opened(engine, budget_s=0.002):
    """``engine``'s round over a new session the driver answers."""
    engine._begin_session(GAME.initial_state(), budget_s)
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
            return run_rounds(rounds, BatchExecutor(GAME))

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
        executor = BatchExecutor(GAME)
        calls = []

        def spy(segments):
            calls.append([len(states) for _, states in segments])
            return executor(segments)

        run_rounds(rounds, spy)
        assert calls[0] == [3, 1, 2]


#: Per game, a budget a few iterations long.
BUDGETS = {"tictactoe": 2e-3, "connect4": 6e-4, "reversi": 3e-4}
#: The CPU kinds; ``{n}`` a tree or worker count (a root segment of
#: ten or more states is a NumPy launch on the NumPy stack, a shorter
#: one plays its lanes in Python).
KINDS = ("sequential", "root:{n}", "tree:{n}@vloss", "tree:{n}@wuct",
         "pipeline:{n}")
#: The compiled stack and the NumPy one.
STACKS = ("@arena@compiled", "@node")


@st.composite
def merges(draw):
    """A session, the co-sessions merged with it and its place among
    them: ``(game, position, subject, co-sessions, place)``, a session
    being ``(spec, seed, budget, iteration cap)``."""
    name = draw(st.sampled_from(sorted(BUDGETS)))
    stack = draw(st.sampled_from(STACKS))

    def session(stack):
        kind = draw(st.sampled_from(KINDS)).format(n=draw(st.integers(2, 12)))
        return (
            kind + stack,
            draw(st.integers(0, 2**16)),
            BUDGETS[name] * draw(st.sampled_from((0.5, 1.0, 2.0))),
            draw(st.sampled_from((None, 2, 7))),
        )

    others = [
        session(draw(st.sampled_from(STACKS)))
        for _ in range(draw(st.integers(1, 4)))
    ]
    return (
        name,
        draw(st.integers(0, 6)),
        session(stack),
        others,
        draw(st.integers(0, len(others))),
    )


def _begun(game, state, spec, seed, budget, cap):
    engine = make_engine(spec, game, seed, max_iterations=cap)
    engine._begin_session(state, budget)
    return engine


@settings(max_examples=40, deadline=None)
@given(merges())
def test_a_session_is_the_same_alone_and_merged(merge):
    """A session's playouts draw from its own stream, so its result is
    the one ``search()`` finds alone, whoever it is merged with and
    wherever it sits in the call."""
    name, plies, subject, others, place = merge
    game = make_game(name)
    state = game.initial_state()
    rng = XorShift64Star(plies)
    for _ in range(plies):
        moves = game.legal_moves(state)
        state = game.apply(state, moves[rng.randrange(len(moves))])
    spec, seed, budget, cap = subject
    alone = make_engine(spec, game, seed, max_iterations=cap).search(
        state, budget
    )
    engines = [_begun(game, state, *other) for other in others]
    engines.insert(place, _begun(game, state, *subject))
    merged = run_rounds(
        [engine.open_round() for engine in engines],
        BatchExecutor(game, engines[place].playout),
    )
    assert merged[place] == alone
