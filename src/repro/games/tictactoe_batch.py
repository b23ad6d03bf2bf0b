"""Vectorised lockstep TicTacToe playouts."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.games.batch import BatchGame, select_random_bit
from repro.games.tictactoe import FULL_BOARD, WIN_LINES, TicTacToe, TicTacToeState
from repro.rng import BatchXorShift128Plus
from repro.util.bitops import U64

_ZERO = U64(0)
_FULL = U64(FULL_BOARD)
_LINES = np.array(WIN_LINES, dtype=np.uint64)


def _has_line_batch(masks: np.ndarray) -> np.ndarray:
    """Boolean per lane: does ``masks`` contain any winning line."""
    hits = (masks[:, None] & _LINES[None, :]) == _LINES[None, :]
    return hits.any(axis=1)


@dataclass
class TicTacToeBatch:
    x: np.ndarray  # uint64 (only low 9 bits used)
    o: np.ndarray
    to_move: np.ndarray  # int8
    done: np.ndarray  # bool

    def __len__(self) -> int:
        return self.x.shape[0]


class BatchTicTacToe(BatchGame):
    name = "tictactoe"
    max_game_length = TicTacToe.max_game_length

    def make_batch(
        self, states: Sequence[TicTacToeState], lanes_per_state: int
    ) -> TicTacToeBatch:
        if lanes_per_state <= 0:
            raise ValueError(
                f"lanes_per_state must be positive, got {lanes_per_state}"
            )
        x = np.repeat(
            np.array([s.x for s in states], dtype=U64), lanes_per_state
        )
        o = np.repeat(
            np.array([s.o for s in states], dtype=U64), lanes_per_state
        )
        to_move = np.repeat(
            np.array([s.to_move for s in states], dtype=np.int8),
            lanes_per_state,
        )
        done = (
            _has_line_batch(x) | _has_line_batch(o) | ((x | o) == _FULL)
        )
        return TicTacToeBatch(x=x, o=o, to_move=to_move, done=done)

    def step(self, batch: TicTacToeBatch, rng: BatchXorShift128Plus) -> int:
        act = ~batch.done
        empty = ~(batch.x | batch.o) & _FULL
        bits = select_random_bit(empty, rng)
        x_turn = batch.to_move == 1
        place_x = act & x_turn
        place_o = act & ~x_turn
        batch.x = np.where(place_x, batch.x | bits, batch.x)
        batch.o = np.where(place_o, batch.o | bits, batch.o)
        batch.to_move = np.where(act, -batch.to_move, batch.to_move)
        batch.done = (
            _has_line_batch(batch.x)
            | _has_line_batch(batch.o)
            | ((batch.x | batch.o) == _FULL)
        )
        return int((~batch.done).sum())

    def active(self, batch: TicTacToeBatch) -> np.ndarray:
        return ~batch.done

    def winners(self, batch: TicTacToeBatch) -> np.ndarray:
        w = np.zeros(len(batch), dtype=np.int8)
        w[_has_line_batch(batch.x)] = 1
        w[_has_line_batch(batch.o)] = -1
        return w

    def scores(self, batch: TicTacToeBatch) -> np.ndarray:
        return self.winners(batch).astype(np.int16)

    def lane_state(self, batch: TicTacToeBatch, i: int) -> TicTacToeState:
        return TicTacToeState(
            int(batch.x[i]), int(batch.o[i]), int(batch.to_move[i])
        )
