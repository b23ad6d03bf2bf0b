"""Tests for matchups and strength ordering sanity."""

import pytest

from repro.arena import play_match
from repro.core import SequentialMcts
from repro.games import TicTacToe
from repro.players import GreedyPlayer, MctsPlayer, RandomPlayer

GAME = TicTacToe()


def random_factory(seed):
    return RandomPlayer(GAME, seed)


def mcts_factory(seed):
    return MctsPlayer(
        GAME, SequentialMcts(GAME, seed), move_budget_s=0.003
    )


class TestPlayMatch:
    def test_counts_add_up(self):
        res = play_match(GAME, random_factory, random_factory, 10, seed=1)
        assert res.games == 10
        assert res.wins + res.losses + res.draws == 10
        assert len(res.records) == 10

    def test_colours_alternate(self):
        res = play_match(GAME, random_factory, random_factory, 4, seed=1)
        assert res.subject_colours == [1, -1, 1, -1]

    def test_fixed_colours(self):
        res = play_match(
            GAME,
            random_factory,
            random_factory,
            4,
            seed=1,
            alternate_colours=False,
        )
        assert res.subject_colours == [1, 1, 1, 1]

    def test_reproducible(self):
        a = play_match(GAME, random_factory, random_factory, 6, seed=9)
        b = play_match(GAME, random_factory, random_factory, 6, seed=9)
        assert (a.wins, a.losses, a.draws) == (b.wins, b.losses, b.draws)

    def test_rejects_zero_games(self):
        with pytest.raises(ValueError):
            play_match(GAME, random_factory, random_factory, 0, seed=1)

    def test_series_shapes(self):
        res = play_match(GAME, random_factory, random_factory, 4, seed=2)
        assert res.score_series(9).shape == (9,)
        assert res.depth_series(9).shape == (9,)


class TestStrengthOrdering:
    """MCTS > random must hold in TicTacToe for any sane engine."""

    def test_mcts_crushes_random(self):
        res = play_match(GAME, mcts_factory, random_factory, 12, seed=3)
        assert res.win_ratio > 0.75

    def test_mcts_never_loses_as_first_player(self):
        res = play_match(
            GAME,
            mcts_factory,
            lambda s: GreedyPlayer(GAME, s),
            6,
            seed=4,
            alternate_colours=False,
        )
        assert res.losses <= 1  # tiny budget; at most a rare slip

    def test_ci_brackets_ratio(self):
        res = play_match(GAME, mcts_factory, random_factory, 8, seed=5)
        lo, hi = res.win_ratio_ci()
        assert lo <= res.win_ratio <= hi

