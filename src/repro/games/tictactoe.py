"""TicTacToe: a game small enough to test MCTS behaviour exhaustively.

MCTS with any reasonable budget must never lose TicTacToe from the
start position; the integration tests rely on this.  Board cells are
bits 0..8, row-major.
"""

from __future__ import annotations

from typing import NamedTuple

from repro.games.base import Game
from repro.util.bitops import bit_count, bits_of

FULL_BOARD = 0x1FF

#: All eight winning lines as 9-bit masks.
WIN_LINES = (
    0b000000111,  # rows
    0b000111000,
    0b111000000,
    0b001001001,  # columns
    0b010010010,
    0b100100100,
    0b100010001,  # diagonals
    0b001010100,
)


class TicTacToeState(NamedTuple):
    x: int  # player +1 discs
    o: int  # player -1 discs
    to_move: int


#: ``_HAS_LINE[mask]`` == "does this 9-bit occupancy contain a win
#: line".  Terminal checks run once per node created and once per
#: playout ply, hot enough that the table lookup matters.
_HAS_LINE = tuple(
    any(m & line == line for line in WIN_LINES) for m in range(512)
)


def _has_line(mask: int) -> bool:
    return _HAS_LINE[mask]


class TicTacToe(Game):
    name = "tictactoe"
    num_moves = 9
    max_game_length = 9

    def initial_state(self) -> TicTacToeState:
        return TicTacToeState(0, 0, 1)

    def to_move(self, state: TicTacToeState) -> int:
        return state.to_move

    def legal_moves(self, state: TicTacToeState) -> tuple[int, ...]:
        if self.is_terminal(state):
            return ()
        empty = ~(state.x | state.o) & FULL_BOARD
        return tuple(bits_of(empty))

    def legal_mask(self, state: TicTacToeState) -> int:
        if self.is_terminal(state):
            return 0
        return ~(state.x | state.o) & FULL_BOARD

    def apply(self, state: TicTacToeState, move: int) -> TicTacToeState:
        bit = 1 << move
        if not (0 <= move < 9) or bit & (state.x | state.o):
            raise ValueError(f"illegal tictactoe move {move}")
        if state.to_move == 1:
            return TicTacToeState(state.x | bit, state.o, -1)
        return TicTacToeState(state.x, state.o | bit, 1)

    def is_terminal(self, state: TicTacToeState) -> bool:
        return (
            _has_line(state.x)
            or _has_line(state.o)
            or (state.x | state.o) == FULL_BOARD
        )

    def winner(self, state: TicTacToeState) -> int:
        if _has_line(state.x):
            return 1
        if _has_line(state.o):
            return -1
        return 0

    def score(self, state: TicTacToeState) -> int:
        return self.winner(state)

    def render(self, state: TicTacToeState) -> str:
        rows = []
        for r in range(3):
            cells = []
            for c in range(3):
                bit = 1 << (r * 3 + c)
                cells.append(
                    "X" if state.x & bit else "O" if state.o & bit else "."
                )
            rows.append(" ".join(cells))
        return "\n".join(rows)

    def occupancy(self, state: TicTacToeState) -> int:
        return bit_count(state.x | state.o)

    def zobrist_planes(self, state: TicTacToeState) -> tuple[int, int]:
        return state.x, state.o

    def state_from_planes(
        self, p1: int, p2: int, to_move: int
    ) -> TicTacToeState:
        return TicTacToeState(p1, p2, to_move)
