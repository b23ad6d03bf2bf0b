"""Scalar bitboard Connect-4 (7 columns x 6 rows).

The paper's future-work section calls for applying block-parallel MCTS
to other domains; Connect-4 is our second domain.  Bit layout is the
standard one: bit ``col * 7 + row`` with row 0 at the bottom and one
sentinel row (row 6) per column so four-in-a-row detection never wraps
between columns.
"""

from __future__ import annotations

from typing import NamedTuple

from repro.games.base import Game

NUM_COLS = 7
NUM_ROWS = 6

#: One bit at the bottom cell of every column.
BOTTOM_MASK = sum(1 << (c * 7) for c in range(NUM_COLS))
#: All playable cells (sentinel row excluded).
BOARD_MASK = sum(
    1 << (c * 7 + r) for c in range(NUM_COLS) for r in range(NUM_ROWS)
)


def has_four(b: int) -> bool:
    """Whether bitboard ``b`` contains four aligned discs.

    Unrolled over the four directions (vertical 1, horizontal 7,
    diag / 8, diag \\ 6): this runs twice per terminal check, which is
    once per node created and once per playout ply.
    """
    y = b & (b >> 1)
    if y & (y >> 2):
        return True
    y = b & (b >> 7)
    if y & (y >> 14):
        return True
    y = b & (b >> 8)
    if y & (y >> 16):
        return True
    y = b & (b >> 6)
    return bool(y & (y >> 12))


class Connect4State(NamedTuple):
    p1: int  # player +1 discs
    p2: int  # player -1 discs
    to_move: int


class Connect4(Game):
    name = "connect4"
    num_moves = NUM_COLS
    max_game_length = NUM_COLS * NUM_ROWS

    def initial_state(self) -> Connect4State:
        return Connect4State(0, 0, 1)

    def to_move(self, state: Connect4State) -> int:
        return state.to_move

    def legal_moves(self, state: Connect4State) -> tuple[int, ...]:
        if self.is_terminal(state):
            return ()
        mask = state.p1 | state.p2
        top = 1 << (NUM_ROWS - 1)
        return tuple(
            c for c in range(NUM_COLS) if not mask >> (c * 7) & top
        )

    def legal_mask(self, state: Connect4State) -> int:
        if self.is_terminal(state):
            return 0
        # Column c is open iff its top playable cell (bit c*7 + 5) is
        # empty; gather those seven bits down to positions 0..6.
        top = ~(state.p1 | state.p2)
        return (
            (top >> 5 & 1)
            | (top >> 11 & 2)
            | (top >> 17 & 4)
            | (top >> 23 & 8)
            | (top >> 29 & 16)
            | (top >> 35 & 32)
            | (top >> 41 & 64)
        )

    def apply(self, state: Connect4State, move: int) -> Connect4State:
        if not 0 <= move < NUM_COLS:
            raise ValueError(f"illegal connect4 column {move}")
        mask = state.p1 | state.p2
        landing = (mask + (1 << (move * 7))) & ~mask & BOARD_MASK
        landing &= 0x7F << (move * 7)
        if not landing:
            raise ValueError(f"column {move} is full")
        if state.to_move == 1:
            return Connect4State(state.p1 | landing, state.p2, -1)
        return Connect4State(state.p1, state.p2 | landing, 1)

    def is_terminal(self, state: Connect4State) -> bool:
        return (
            has_four(state.p1)
            or has_four(state.p2)
            or (state.p1 | state.p2) == BOARD_MASK
        )

    def winner(self, state: Connect4State) -> int:
        if has_four(state.p1):
            return 1
        if has_four(state.p2):
            return -1
        return 0

    def score(self, state: Connect4State) -> int:
        return self.winner(state)

    def zobrist_planes(self, state: Connect4State) -> tuple[int, int]:
        return state.p1, state.p2

    def state_from_planes(
        self, p1: int, p2: int, to_move: int
    ) -> Connect4State:
        return Connect4State(p1, p2, to_move)

    def render(self, state: Connect4State) -> str:
        rows = []
        for r in range(NUM_ROWS - 1, -1, -1):
            cells = []
            for c in range(NUM_COLS):
                bit = 1 << (c * 7 + r)
                cells.append(
                    "X" if state.p1 & bit else "O" if state.p2 & bit else "."
                )
            rows.append(" ".join(cells))
        rows.append(" ".join(str(c) for c in range(NUM_COLS)))
        return "\n".join(rows)
