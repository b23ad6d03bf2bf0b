"""Tests for the game registry and shared base helpers."""

import pytest

from repro.games import make_batch_game, make_game


class TestRegistry:
    @pytest.mark.parametrize(
        "name", ["reversi", "tictactoe", "connect4", "breakthrough"]
    )
    def test_make_game(self, name):
        game = make_game(name)
        assert game.name == name
        batch = make_batch_game(name)
        assert batch.name == name
        assert batch.max_game_length == game.max_game_length

    def test_unknown_game(self):
        with pytest.raises(ValueError, match="unknown game"):
            make_game("go")
        with pytest.raises(ValueError, match="unknown game"):
            make_batch_game("chess")


class TestValidateMove:
    def test_accepts_legal(self):
        game = make_game("tictactoe")
        game.validate_move(game.initial_state(), 0)

    def test_rejects_illegal(self):
        game = make_game("tictactoe")
        s = game.apply(game.initial_state(), 0)
        with pytest.raises(ValueError, match="illegal move"):
            game.validate_move(s, 0)

