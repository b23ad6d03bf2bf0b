"""Scalar bitboard Breakthrough (8x8).

The third "other domain" (paper future-work section V): each side has
two rows of pawns; a pawn steps one square straight or diagonally
forward onto an empty square, and may capture only diagonally.  First
player to reach the opponent's home row -- or to capture every
opposing pawn -- wins.  There are no draws; a player with no legal
move (vanishingly rare but constructible) loses immediately.

Player +1 starts on rows 0-1 moving toward row 7; player -1 on rows
6-7 moving toward row 0.  A move id encodes ``from_square * 3 + dir``
with dir 0 = forward-left (west-ish), 1 = straight, 2 = forward-right.
"""

from __future__ import annotations

from typing import NamedTuple

from repro.games.base import Game
from repro.util.bitops import (
    FULL_MASK,
    NOT_COL_0,
    NOT_COL_7,
    bit_count,
    bits_of,
)

#: Rows 0-1 (player +1's pawns) and rows 6-7 (player -1's).
P1_START = 0x0000_0000_0000_FFFF
P2_START = 0xFFFF_0000_0000_0000
#: Home rows to reach: +1 must reach row 7, -1 must reach row 0.
P1_GOAL = 0xFF00_0000_0000_0000
P2_GOAL = 0x0000_0000_0000_00FF

#: Direction ids.
DIR_LEFT, DIR_STRAIGHT, DIR_RIGHT = 0, 1, 2


class BreakthroughState(NamedTuple):
    p1: int  # player +1 pawns
    p2: int
    to_move: int


def _forward_shift(bit: int, player: int, direction: int) -> int:
    """Target square mask for one pawn; 0 if it leaves the board."""
    if player == 1:
        if direction == DIR_STRAIGHT:
            return (bit << 8) & FULL_MASK
        if direction == DIR_LEFT:
            return ((bit << 7) & FULL_MASK) & NOT_COL_7
        return ((bit << 9) & FULL_MASK) & NOT_COL_0
    if direction == DIR_STRAIGHT:
        return bit >> 8
    if direction == DIR_LEFT:
        return (bit >> 9) & NOT_COL_7
    return (bit >> 7) & NOT_COL_0


def fast_playout(state: BreakthroughState, rng) -> tuple[int, int]:
    """Inlined uniformly-random playout (same contract as
    ``random_playout``; cross-checked statistically in the tests).

    Works on raw bitboards with the three direction target masks,
    drawing the move uniformly across their combined population.
    """
    if state.to_move == 1:
        own, opp = state.p1, state.p2
    else:
        own, opp = state.p2, state.p1
    up = state.to_move == 1  # does `own` move toward higher bits?
    plies = 0
    while True:
        occupied = own | opp
        empty = ~occupied & FULL_MASK
        if up:
            straight = ((own << 8) & FULL_MASK) & empty
            left = ((own << 7) & FULL_MASK) & NOT_COL_7 & ~own
            right = ((own << 9) & FULL_MASK) & NOT_COL_0 & ~own
        else:
            straight = (own >> 8) & empty
            left = ((own >> 9) & NOT_COL_7) & ~own
            right = ((own >> 7) & NOT_COL_0) & ~own
        left &= FULL_MASK
        right &= FULL_MASK
        n_l = left.bit_count()
        n_s = straight.bit_count()
        n_r = right.bit_count()
        total = n_l + n_s + n_r
        if total == 0:
            # mover is stuck: mover loses
            winner_up = not up
            break
        k = rng.randrange(total)
        if k < n_l:
            mask, back_up, back_dn = left, 7, 9
        elif k < n_l + n_s:
            mask, back_up, back_dn = straight, 8, 8
            k -= n_l
        else:
            mask, back_up, back_dn = right, 9, 7
            k -= n_l + n_s
        m = mask
        for _ in range(k):
            m &= m - 1
        target = m & -m
        origin = target >> back_up if up else target << back_dn
        own = (own ^ origin) | target
        opp &= ~target
        plies += 1
        # win checks for the side that just moved
        goal = P1_GOAL if up else P2_GOAL
        if target & goal or not opp:
            winner_up = up
            break
        own, opp = opp, own
        up = not up
    # winner_up refers to the player moving toward higher bits = +1
    winner = 1 if winner_up else -1
    return winner, plies


class Breakthrough(Game):
    name = "breakthrough"
    num_moves = 64 * 3
    # 2x16 pawns; every move either advances a pawn (<= 6 rows each)
    # or captures; a generous lockstep bound:
    max_game_length = 256

    def initial_state(self) -> BreakthroughState:
        return BreakthroughState(P1_START, P2_START, 1)

    def to_move(self, state: BreakthroughState) -> int:
        return state.to_move

    def _own_opp(self, state: BreakthroughState) -> tuple[int, int]:
        if state.to_move == 1:
            return state.p1, state.p2
        return state.p2, state.p1

    def legal_moves(self, state: BreakthroughState) -> tuple[int, ...]:
        if self.is_terminal(state):
            return ()
        own, opp = self._own_opp(state)
        empty = ~(state.p1 | state.p2) & FULL_MASK
        moves = []
        for sq in bits_of(own):
            bit = 1 << sq
            for direction in (DIR_LEFT, DIR_STRAIGHT, DIR_RIGHT):
                target = _forward_shift(bit, state.to_move, direction)
                if not target:
                    continue
                if direction == DIR_STRAIGHT:
                    if target & empty:
                        moves.append(sq * 3 + direction)
                elif target & ~own & FULL_MASK:  # empty or capture
                    moves.append(sq * 3 + direction)
        return tuple(moves)

    def apply(self, state: BreakthroughState, move: int) -> BreakthroughState:
        if not 0 <= move < self.num_moves:
            raise ValueError(f"move id out of range: {move}")
        sq, direction = divmod(move, 3)
        bit = 1 << sq
        own, opp = self._own_opp(state)
        if not bit & own:
            raise ValueError(f"no pawn of the mover on square {sq}")
        target = _forward_shift(bit, state.to_move, direction)
        if not target:
            raise ValueError(f"move {move} leaves the board")
        if target & own:
            raise ValueError("cannot move onto an own pawn")
        if direction == DIR_STRAIGHT and target & opp:
            raise ValueError("straight moves cannot capture")
        own = (own ^ bit) | target
        opp &= ~target
        if state.to_move == 1:
            return BreakthroughState(own, opp, -1)
        return BreakthroughState(opp, own, 1)

    def is_terminal(self, state: BreakthroughState) -> bool:
        if state.p1 & P1_GOAL or state.p2 & P2_GOAL:
            return True
        if not state.p1 or not state.p2:
            return True
        return not self._mover_has_move(state)

    def winner(self, state: BreakthroughState) -> int:
        if state.p1 & P1_GOAL or not state.p2:
            return 1
        if state.p2 & P2_GOAL or not state.p1:
            return -1
        if not self._mover_has_move(state):
            return -state.to_move  # stuck player loses
        return 0

    def _mover_has_move(self, state: BreakthroughState) -> bool:
        own, opp = self._own_opp(state)
        empty = ~(state.p1 | state.p2) & FULL_MASK
        if state.to_move == 1:
            if (own << 8) & FULL_MASK & empty:
                return True
            if ((own & NOT_COL_0) << 7) & ~own & FULL_MASK:
                return True
            return bool(((own & NOT_COL_7) << 9) & ~own & FULL_MASK)
        if (own >> 8) & empty:
            return True
        if ((own & NOT_COL_7) >> 7) & ~own & FULL_MASK:
            return True
        return bool(((own & NOT_COL_0) >> 9) & ~own & FULL_MASK)

    def score(self, state: BreakthroughState) -> int:
        """Pawn difference (wins dominate score only at terminal)."""
        return bit_count(state.p1) - bit_count(state.p2)

    def zobrist_planes(
        self, state: BreakthroughState
    ) -> tuple[int, int]:
        return state.p1, state.p2

    def state_from_planes(
        self, p1: int, p2: int, to_move: int
    ) -> BreakthroughState:
        return BreakthroughState(p1, p2, to_move)

    def playout(self, state: BreakthroughState, rng) -> tuple[int, int]:
        return fast_playout(state, rng)

    def render(self, state: BreakthroughState) -> str:
        rows = []
        for r in range(7, -1, -1):
            cells = []
            for c in range(8):
                bit = 1 << (r * 8 + c)
                cells.append(
                    "^" if state.p1 & bit else "v" if state.p2 & bit else "."
                )
            rows.append(f"{r + 1} " + " ".join(cells))
        rows.append("  a b c d e f g h")
        mover = "^ (up)" if state.to_move == 1 else "v (down)"
        rows.append(f"to move: {mover}")
        return "\n".join(rows)
