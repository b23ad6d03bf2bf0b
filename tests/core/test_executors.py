"""Tests for the CPU playout executor behind the round seam.

``BatchExecutor`` plays sessions' segments, ``(family seed, states)``,
lane ``i`` of the family playing state ``i``: on the compiled stack one
launch a segment, on the NumPy stack one NumPy launch a segment of at
least ``SCALAR_CUTOFF`` states and the Python lane
(``Game.playout`` on an ``XorShift128PlusLane``) below it.  Every body
plays a lane alike, draw for draw, so where a segment runs never shows.
"""

import numpy as np
import pytest

from repro.compiled import COMPILED_GAMES, launch_compiled
from repro.compiled.build import kernel_bodies, pinned_kernel_body
from repro.core.base import BatchExecutor, tally
from repro.core.executors import launch_numpy
from repro.games import Reversi, make_batch_game, make_game
from repro.games.reversi import ReversiState
from repro.rng import XorShift128PlusLane, XorShift64Star


def positions(game, count=24, seed=3):
    """Positions from the start to the last plies, terminal ones
    included (a Reversi board over at entry among them)."""
    rng = XorShift64Star(seed)
    out = [game.initial_state()]
    for t in range(1, count):
        state = game.initial_state()
        for _ in range(t * game.max_game_length // count):
            if game.is_terminal(state):
                break
            moves = game.legal_moves(state)
            state = game.apply(state, moves[rng.randrange(len(moves))])
        out.append(state)
    if game.name == "reversi":
        out.append(ReversiState(0xFFFF_FFFF_0000_0000, 0xFFFF_FFFF, 1))
    return out


class TestBatchExecutor:
    def test_small_segments_play_lane_by_lane(self, compiled_env):
        """On the NumPy stack a segment under the cutoff plays each lane
        through ``Game.playout``, and answers as the launch would."""
        compiled_env("0")
        game = Reversi()
        states = [game.initial_state()] * 3
        played = []

        class Spied(Reversi):
            def playout(self, state, rng):
                played.append(type(rng))
                return super().playout(state, rng)

        answers = BatchExecutor(Spied())([(7, states)])
        winners, plies = launch_numpy(make_batch_game("reversi"), states, 7)
        assert played == [XorShift128PlusLane] * 3
        assert answers == list(zip(winners.tolist(), plies.tolist()))

    def test_large_batches_go_vectorised(self):
        run = BatchExecutor(Reversi())
        game = Reversi()
        results = run([(3, [game.initial_state()] * 64)])
        assert len(results) == 64
        winners = np.array([w for w, _ in results])
        b, w, d = tally(winners)
        assert b + w + d == 64
        # sanity: random Reversi from the start is not one-sided
        assert 10 < b < 54

    def test_deterministic_per_call_sequence(self):
        """A segment's answers are its seed's: the same from any
        executor, alone or after other segments."""
        game = Reversi()
        short = [game.initial_state()] * 3
        wide = [game.initial_state()] * 32
        a, b = BatchExecutor(game), BatchExecutor(game)
        assert a([(9, wide)]) == b([(9, wide)])
        assert a([(1, short), (9, wide)])[3:] == b([(9, wide)])

    def test_seed_changes_results(self):
        game = Reversi()
        states = [game.initial_state()] * 32
        run = BatchExecutor(game)
        assert run([(1, states)]) != run([(2, states)])

    def test_empty(self):
        run = BatchExecutor(make_game("tictactoe"))
        assert run([]) == []
        assert run([(1, [])]) == []


@pytest.mark.parametrize("name", sorted(COMPILED_GAMES) + ["breakthrough"])
def test_the_bodies_agree_lane_for_lane(name):
    """A one-state call: the Python lane, the NumPy lane and the C lane
    on every kernel body this host runs answer alike, position for
    position and seed for seed (breakthrough has no kernel)."""
    game, bg = make_game(name), make_batch_game(name)
    bodies = kernel_bodies() if name in COMPILED_GAMES else ()
    for i, state in enumerate(positions(game)):
        seed = 1000 + i
        lane = game.playout(state, XorShift128PlusLane(seed, 0))
        winners, plies = launch_numpy(bg, [state], seed)
        assert lane == (winners.item(), plies.item()), (name, i)
        for body in bodies:
            with pinned_kernel_body(body):
                winners, plies = launch_compiled(bg, [state], seed)
            assert lane == (winners.item(), plies.item()), (name, i, body)


def test_a_lane_of_a_wide_launch_is_the_python_lane():
    """Lane ``i`` of a launch is ``XorShift128PlusLane(seed, i)``."""
    game = make_game("connect4")
    states = positions(game, count=12)
    winners, plies = launch_numpy(make_batch_game("connect4"), states, 5)
    assert list(zip(winners.tolist(), plies.tolist())) == [
        game.playout(state, XorShift128PlusLane(5, i))
        for i, state in enumerate(states)
    ]


class TestTally:
    def test_counts(self):
        b, w, d = tally(np.array([1, 1, -1, 0, 0, 0]))
        assert (b, w, d) == (2, 1, 3)
