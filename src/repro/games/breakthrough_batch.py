"""Vectorised lockstep Breakthrough playouts.

Per step each lane computes its three direction target masks (straight
to empty; diagonals to any non-own square), draws a uniformly random
move across all three masks, and applies it.  Board orientation is
handled without branches by keeping ``own``/``opp`` relative to the
side to move and flipping the shift direction with the mover's sign.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.games.batch import BatchGame, select_nth_bit
from repro.games.breakthrough import (
    P1_GOAL,
    P2_GOAL,
    Breakthrough,
    BreakthroughState,
)
from repro.rng import BatchXorShift128Plus
from repro.util.bitops import NOT_COL_0, NOT_COL_7, U64

_ZERO = U64(0)
_SEVEN = U64(7)
_EIGHT = U64(8)
_NINE = U64(9)
_NOT0 = U64(NOT_COL_0)
_NOT7 = U64(NOT_COL_7)
_GOAL_UP = U64(P1_GOAL)
_GOAL_DOWN = U64(P2_GOAL)


def _targets(own, opp, up_mask):
    """(left, straight, right) target masks per lane.

    ``up_mask`` is boolean: lanes whose mover advances toward higher
    bits.  Straight moves require empty targets; diagonals any non-own
    square.
    """
    empty = ~(own | opp)
    fwd_up = own << _EIGHT
    fwd_dn = own >> _EIGHT
    left_up = (own << _SEVEN) & _NOT7
    left_dn = (own >> _NINE) & _NOT7
    right_up = (own << _NINE) & _NOT0
    right_dn = (own >> _SEVEN) & _NOT0
    straight = np.where(up_mask, fwd_up, fwd_dn) & empty
    left = np.where(up_mask, left_up, left_dn) & ~own
    right = np.where(up_mask, right_up, right_dn) & ~own
    return left, straight, right


@dataclass
class BreakthroughBatch:
    own: np.ndarray  # pawns of the side to move
    opp: np.ndarray
    to_move: np.ndarray  # int8
    done: np.ndarray
    winner: np.ndarray  # int8, valid once done

    def __len__(self) -> int:
        return self.own.shape[0]


class BatchBreakthrough(BatchGame):
    name = "breakthrough"
    max_game_length = Breakthrough.max_game_length

    def make_batch(
        self, states: Sequence[BreakthroughState], lanes_per_state: int
    ) -> BreakthroughBatch:
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
        up = to_move == 1
        batch = BreakthroughBatch(
            own=np.where(up, p1, p2),
            opp=np.where(up, p2, p1),
            to_move=to_move,
            done=np.zeros(p1.shape[0], dtype=bool),
            winner=np.zeros(p1.shape[0], dtype=np.int8),
        )
        self._settle_terminals(batch)
        return batch

    def _settle_terminals(self, batch: BreakthroughBatch) -> None:
        """Mark lanes already terminal (goal reached / wiped out /
        stuck mover) and record their winners."""
        up = batch.to_move == 1
        p1 = np.where(up, batch.own, batch.opp)
        p2 = np.where(up, batch.opp, batch.own)
        p1_wins = ((p1 & _GOAL_UP) != _ZERO) | (p2 == _ZERO)
        p2_wins = ((p2 & _GOAL_DOWN) != _ZERO) | (p1 == _ZERO)
        p2_wins &= ~p1_wins
        left, straight, right = _targets(batch.own, batch.opp, up)
        stuck = (
            ~p1_wins
            & ~p2_wins
            & ((left | straight | right) == _ZERO)
            & ~batch.done
        )
        newly = (p1_wins | p2_wins | stuck) & ~batch.done
        batch.winner = np.where(
            newly & p1_wins,
            np.int8(1),
            np.where(
                newly & p2_wins,
                np.int8(-1),
                np.where(
                    newly & stuck,
                    (-batch.to_move).astype(np.int8),
                    batch.winner,
                ),
            ),
        )
        batch.done = batch.done | newly

    def step(
        self, batch: BreakthroughBatch, rng: BatchXorShift128Plus
    ) -> int:
        act = ~batch.done
        up = batch.to_move == 1
        left, straight, right = _targets(batch.own, batch.opp, up)
        n_l = np.bitwise_count(left).astype(np.int64)
        n_s = np.bitwise_count(straight).astype(np.int64)
        n_r = np.bitwise_count(right).astype(np.int64)
        total = n_l + n_s + n_r
        pick = rng.randbelow(total)

        use_l = pick < n_l
        use_s = ~use_l & (pick < n_l + n_s)
        use_r = ~use_l & ~use_s

        idx = np.where(
            use_l, pick, np.where(use_s, pick - n_l, pick - n_l - n_s)
        ).clip(min=0)
        mask = np.where(use_l, left, np.where(use_s, straight, right))
        safe = total > 0
        bit_idx = select_nth_bit(mask, np.where(safe, idx, 0))
        target = np.where(
            safe, np.uint64(1) << bit_idx.astype(np.uint64), _ZERO
        )
        # left for an up-mover is <<7 but for a down-mover >>9 -- the
        # inversion shift differs per orientation:
        shift_up = np.where(use_s, _EIGHT, np.where(use_l, _SEVEN, _NINE))
        shift_dn = np.where(use_s, _EIGHT, np.where(use_l, _NINE, _SEVEN))
        origin = np.where(
            up, target >> shift_up, target << shift_dn
        )

        # For lanes with a move, origin/target are set; for stuck lanes
        # both are zero, so new_own == own -- the perspective swap below
        # is then a pure pass, keeping own/opp aligned with to_move.
        new_own = (batch.own ^ origin) | target
        new_opp = batch.opp & ~target
        batch.own = np.where(act, new_opp, batch.own)
        batch.opp = np.where(act, new_own, batch.opp)
        batch.to_move = np.where(act, -batch.to_move, batch.to_move)
        # Lanes whose mover had no legal move: that mover loses.  The
        # perspective flip above already ran, so the stuck player is
        # the opponent of the *new* side to move.
        no_move = act & ~safe
        batch.done = batch.done | no_move
        batch.winner = np.where(
            no_move, batch.to_move.astype(np.int8), batch.winner
        )
        self._settle_terminals(batch)
        return int((~batch.done).sum())

    def active(self, batch: BreakthroughBatch) -> np.ndarray:
        return ~batch.done

    def winners(self, batch: BreakthroughBatch) -> np.ndarray:
        return batch.winner.copy()

    def scores(self, batch: BreakthroughBatch) -> np.ndarray:
        up = batch.to_move == 1
        p1 = np.where(up, batch.own, batch.opp)
        p2 = np.where(up, batch.opp, batch.own)
        return (
            np.bitwise_count(p1).astype(np.int16)
            - np.bitwise_count(p2).astype(np.int16)
        )

    def lane_state(
        self, batch: BreakthroughBatch, i: int
    ) -> BreakthroughState:
        tm = int(batch.to_move[i])
        own, opp = int(batch.own[i]), int(batch.opp[i])
        p1, p2 = (own, opp) if tm == 1 else (opp, own)
        return BreakthroughState(p1, p2, tm)
