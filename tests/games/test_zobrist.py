"""Canonical Zobrist hashing: deterministic per-game tables, and keys
that actually behave like a position identity."""

import pytest

from repro.games import make_game, table_for
from repro.games.zobrist import NUM_SQUARES, ZobristTable
from repro.rng import XorShift64Star

GAMES = ("tictactoe", "connect4", "reversi", "breakthrough")


def random_walk(game, seed, max_plies=60):
    """States along one random game, capped at ``max_plies``."""
    rng = XorShift64Star(seed)
    state = game.initial_state()
    states = [state]
    for _ in range(max_plies):
        if game.is_terminal(state):
            break
        moves = game.legal_moves(state)
        state = game.apply(state, moves[rng.randrange(len(moves))])
        states.append(state)
    return states


# -- table construction ------------------------------------------------------


def test_tables_are_deterministic_and_per_game():
    a = ZobristTable("reversi")
    b = table_for("reversi")
    assert a.piece_keys == b.piece_keys
    assert a.side_key == b.side_key
    assert table_for("reversi") is table_for("reversi")
    assert table_for("connect4").piece_keys != a.piece_keys


def test_table_keys_are_distinct():
    table = table_for("reversi")
    keys = {
        k for plane in table.piece_keys for k in plane
    } | {table.side_key}
    assert len(keys) == 2 * NUM_SQUARES + 1


@pytest.mark.parametrize("game_name", GAMES)
def test_side_to_move_changes_key(game_name):
    game = make_game(game_name)
    state = game.initial_state()
    p1, p2 = game.zobrist_planes(state)
    table = table_for(game_name)
    assert table.fold(p1, p2, 1) != table.fold(p1, p2, -1)
    assert game.zobrist_key(state) == table.fold(p1, p2, 1)


def test_distinct_positions_get_distinct_keys():
    # Not a guarantee (64-bit), but a sanity screen over a few
    # thousand reachable positions per game.
    for game_name in GAMES:
        game = make_game(game_name)
        seen: dict[int, object] = {}
        for seed in range(60):
            for state in random_walk(game, seed):
                key = game.zobrist_key(state)
                prior = seen.setdefault(key, state)
                assert prior == state, (
                    f"{game_name}: collision {prior!r} vs {state!r}"
                )


def test_transposition_same_key():
    # Two move orders reaching the same board share one key.
    game = make_game("tictactoe")
    s = game.initial_state()
    a = game.apply(game.apply(game.apply(s, 0), 4), 8)
    b = game.apply(game.apply(game.apply(s, 8), 4), 0)
    assert a == b
    assert game.zobrist_key(a) == game.zobrist_key(b)
