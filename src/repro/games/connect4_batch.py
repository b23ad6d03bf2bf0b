"""Vectorised lockstep Connect-4 playouts.

Move generation uses the carry trick: ``(mask + BOTTOM) & BOARD`` puts
exactly one bit at the lowest empty cell of every non-full column, so a
random legal drop is a random set bit of that word -- one
:func:`~repro.games.batch.select_random_bit` call per lockstep ply.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.games.batch import BatchGame, select_random_bit
from repro.games.connect4 import BOARD_MASK, BOTTOM_MASK, Connect4, Connect4State
from repro.rng import BatchXorShift128Plus
from repro.util.bitops import U64

_ZERO = U64(0)
_BOTTOM = U64(BOTTOM_MASK)
_BOARD = U64(BOARD_MASK)
_DIRS = tuple(U64(d) for d in (1, 7, 8, 6))
_TWO = U64(2)


def has_four_batch(b: np.ndarray) -> np.ndarray:
    """Boolean per lane: four aligned discs present."""
    out = np.zeros(b.shape, dtype=bool)
    for d in _DIRS:
        y = b & (b >> d)
        out |= (y & (y >> (d * _TWO))) != _ZERO
    return out


@dataclass
class Connect4Batch:
    p1: np.ndarray  # uint64
    p2: np.ndarray
    to_move: np.ndarray  # int8
    done: np.ndarray  # bool

    def __len__(self) -> int:
        return self.p1.shape[0]


class BatchConnect4(BatchGame):
    name = "connect4"
    max_game_length = Connect4.max_game_length

    def make_batch(
        self, states: Sequence[Connect4State], lanes_per_state: int
    ) -> Connect4Batch:
        if lanes_per_state <= 0:
            raise ValueError(
                f"lanes_per_state must be positive, got {lanes_per_state}"
            )
        p1 = np.repeat(
            np.array([s.p1 for s in states], dtype=U64), lanes_per_state
        )
        p2 = np.repeat(
            np.array([s.p2 for s in states], dtype=U64), lanes_per_state
        )
        to_move = np.repeat(
            np.array([s.to_move for s in states], dtype=np.int8),
            lanes_per_state,
        )
        done = (
            has_four_batch(p1)
            | has_four_batch(p2)
            | ((p1 | p2) == _BOARD)
        )
        return Connect4Batch(p1=p1, p2=p2, to_move=to_move, done=done)

    def step(self, batch: Connect4Batch, rng: BatchXorShift128Plus) -> int:
        act = ~batch.done
        mask = batch.p1 | batch.p2
        landings = (mask + _BOTTOM) & ~mask & _BOARD
        bits = select_random_bit(landings, rng)
        p1_turn = batch.to_move == 1
        batch.p1 = np.where(act & p1_turn, batch.p1 | bits, batch.p1)
        batch.p2 = np.where(act & ~p1_turn, batch.p2 | bits, batch.p2)
        batch.to_move = np.where(act, -batch.to_move, batch.to_move)
        batch.done = (
            has_four_batch(batch.p1)
            | has_four_batch(batch.p2)
            | ((batch.p1 | batch.p2) == _BOARD)
        )
        return int((~batch.done).sum())

    def active(self, batch: Connect4Batch) -> np.ndarray:
        return ~batch.done

    def winners(self, batch: Connect4Batch) -> np.ndarray:
        w = np.zeros(len(batch), dtype=np.int8)
        w[has_four_batch(batch.p1)] = 1
        w[has_four_batch(batch.p2)] = -1
        return w

    def scores(self, batch: Connect4Batch) -> np.ndarray:
        return self.winners(batch).astype(np.int16)

    def lane_state(self, batch: Connect4Batch, i: int) -> Connect4State:
        return Connect4State(
            int(batch.p1[i]), int(batch.p2[i]), int(batch.to_move[i])
        )
