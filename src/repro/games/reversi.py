"""Scalar bitboard Reversi (Othello), 8x8.

The board is a pair of 64-bit words (black discs, white discs).  Move
generation and flipping flood own discs (or the move) through
contiguous opponent discs in each of the 8 directions, then one more
step lands on the candidate squares.  The flood is the parallel-prefix
(Kogge-Stone) form on plain ints -- runs of 1, 2, 4, 6 discs in three
doubling steps, the same formulation as the C kernel
(``repro/compiled/playout.c``) -- while the batched engine in
:mod:`repro.games.reversi_batch` walks single steps with per-shift edge
masks; the two are cross-checked in the test suite square by square.
"""

from __future__ import annotations

from typing import NamedTuple

from repro.games.base import Game
from repro.util.bitops import (
    FULL_MASK,
    bit_count,
    bits_of,
    square_mask,
)

#: Move id for "pass" (square ids are 0..63).
PASS_MOVE = 64

#: Initial discs: white on d4/e5, black on e4/d5 (standard setup).
_INITIAL_BLACK = square_mask(3, 4) | square_mask(4, 3)
_INITIAL_WHITE = square_mask(3, 3) | square_mask(4, 4)

#: Opponent discs a horizontal or diagonal run may pass through: a run
#: cannot continue past column 0 or 7, so dropping both edge columns up
#: front stops every wrap-around a per-shift edge mask would.
_INNER_COLS = 0x7E7E_7E7E_7E7E_7E7E


class ReversiState(NamedTuple):
    """Immutable position: black/white bitboards and the side to move."""

    black: int
    white: int
    to_move: int  # +1 = black, -1 = white


def _own_opp(state: ReversiState) -> tuple[int, int]:
    if state.to_move == 1:
        return state.black, state.white
    return state.white, state.black


def mobility(own: int, opp: int) -> int:
    """Bitboard of all squares where ``own`` may legally move."""
    # Per direction (shift s, through discs o), up then down: x grows to
    # runs of 1, 2, 4, 6 discs of o next to own -- 6 is the longest an
    # 8x8 board brackets; pre marks discs whose predecessor is also in o.
    mo = opp & _INNER_COLS
    moves = 0
    for s, o in ((1, mo), (7, mo), (9, mo), (8, opp)):
        d = s + s
        x = o & (own << s)
        x |= o & (x << s)
        pre = o & (o << s)
        x |= pre & (x << d)
        x |= pre & (x << d)
        moves |= x << s
        x = o & (own >> s)
        x |= o & (x >> s)
        pre >>= s  # = o & (o >> s): the same pairs, named by their low disc
        x |= pre & (x >> d)
        x |= pre & (x >> d)
        moves |= x >> s
    return moves & ~(own | opp) & FULL_MASK


def flips_for_move(own: int, opp: int, move_bit: int) -> int:
    """Bitboard of opponent discs flipped by playing ``move_bit``."""
    mo = opp & _INNER_COLS
    flips = 0
    for s, o in ((1, mo), (7, mo), (9, mo), (8, opp)):
        d = s + s
        x = o & (move_bit << s)
        x |= o & (x << s)
        pre = o & (o << s)
        x |= pre & (x << d)
        x |= pre & (x << d)
        if (x << s) & own:
            flips |= x
        x = o & (move_bit >> s)
        x |= o & (x >> s)
        pre >>= s
        x |= pre & (x >> d)
        x |= pre & (x >> d)
        if (x >> s) & own:
            flips |= x
    return flips


def fast_playout(state: ReversiState, rng) -> tuple[int, int]:
    """Uniformly random playout, heavily inlined for the CPU engines.

    Semantically identical to ``random_playout(Reversi(), state, rng)``
    (cross-checked in the tests) but several times faster: no state
    objects, :func:`mobility` and :func:`flips_for_move` inlined (their
    per-direction loop bodies, verbatim), random set-bit extraction via
    ``lsb``-stripping.  Returns ``(winner, plies)`` with the winner
    absolute (+1 black / -1 white / 0 draw).
    """
    if state.to_move == 1:
        own, opp = state.black, state.white
    else:
        own, opp = state.white, state.black
    sign = state.to_move  # +1 while `own` is black's board
    plies = 0
    passed = False
    inner = _INNER_COLS
    while True:
        mo = opp & inner
        dirs = ((1, mo), (7, mo), (9, mo), (8, opp))
        mob = 0
        for s, o in dirs:
            d = s + s
            x = o & (own << s)
            x |= o & (x << s)
            pre = o & (o << s)
            x |= pre & (x << d)
            x |= pre & (x << d)
            mob |= x << s
            x = o & (own >> s)
            x |= o & (x >> s)
            pre >>= s
            x |= pre & (x >> d)
            x |= pre & (x >> d)
            mob |= x >> s
        mob &= ~(own | opp) & FULL_MASK

        if not mob:
            if passed:
                break  # two passes in a row: game over
            passed = True
            own, opp = opp, own
            sign = -sign
            plies += 1
            continue
        passed = False

        # Pick a uniformly random set bit of the mobility mask.
        k = rng.randrange(mob.bit_count())
        m = mob
        for _ in range(k):
            m &= m - 1
        mv = m & -m

        flips = 0
        for s, o in dirs:
            d = s + s
            x = o & (mv << s)
            x |= o & (x << s)
            pre = o & (o << s)
            x |= pre & (x << d)
            x |= pre & (x << d)
            if (x << s) & own:
                flips |= x
            x = o & (mv >> s)
            x |= o & (x >> s)
            pre >>= s
            x |= pre & (x >> d)
            x |= pre & (x >> d)
            if (x >> s) & own:
                flips |= x
        own, opp = opp & ~flips, own | mv | flips
        sign = -sign
        plies += 1

    black = own if sign == 1 else opp
    white = opp if sign == 1 else own
    diff = black.bit_count() - white.bit_count()
    return (diff > 0) - (diff < 0), plies


class Reversi(Game):
    """8x8 Reversi with explicit pass moves."""

    name = "reversi"
    num_moves = 65  # 64 squares + pass
    # 60 disc placements + interleaved passes; 128 is a safe lockstep bound.
    max_game_length = 128

    def initial_state(self) -> ReversiState:
        return ReversiState(_INITIAL_BLACK, _INITIAL_WHITE, 1)

    def to_move(self, state: ReversiState) -> int:
        return state.to_move

    def legal_moves(self, state: ReversiState) -> tuple[int, ...]:
        own, opp = _own_opp(state)
        mob = mobility(own, opp)
        if mob:
            return tuple(bits_of(mob))
        if mobility(opp, own):
            return (PASS_MOVE,)
        return ()  # terminal: neither side can move

    def legal_mask(self, state: ReversiState) -> int:
        own, opp = _own_opp(state)
        mob = mobility(own, opp)
        if mob:
            return mob
        if mobility(opp, own):
            return 1 << PASS_MOVE
        return 0

    def apply(self, state: ReversiState, move: int) -> ReversiState:
        own, opp = _own_opp(state)
        if move == PASS_MOVE:
            if mobility(own, opp):
                raise ValueError("cannot pass while a legal move exists")
            return ReversiState(state.black, state.white, -state.to_move)
        move_bit = 1 << move
        if move_bit & (own | opp):
            raise ValueError(f"square {move} is occupied")
        flips = flips_for_move(own, opp, move_bit)
        if not flips:
            raise ValueError(f"move {move} flips nothing (illegal)")
        own |= move_bit | flips
        opp &= ~flips
        if state.to_move == 1:
            return ReversiState(own, opp, -1)
        return ReversiState(opp, own, 1)

    def is_terminal(self, state: ReversiState) -> bool:
        own, opp = _own_opp(state)
        return not mobility(own, opp) and not mobility(opp, own)

    def winner(self, state: ReversiState) -> int:
        diff = self.score(state)
        return (diff > 0) - (diff < 0)

    def score(self, state: ReversiState) -> int:
        """Disc difference, black minus white (black is player +1)."""
        return bit_count(state.black) - bit_count(state.white)

    def disc_count(self, state: ReversiState) -> int:
        """Total discs on the board (monotone: 4 + plies played)."""
        return bit_count(state.black | state.white)

    def zobrist_planes(self, state: ReversiState) -> tuple[int, int]:
        return state.black, state.white

    def state_from_planes(
        self, p1: int, p2: int, to_move: int
    ) -> ReversiState:
        return ReversiState(p1, p2, to_move)

    def playout(self, state: ReversiState, rng) -> tuple[int, int]:
        return fast_playout(state, rng)

    def render(self, state: ReversiState) -> str:
        rows = ["  a b c d e f g h"]
        for r in range(8):
            cells = []
            for c in range(8):
                bit = 1 << (r * 8 + c)
                if state.black & bit:
                    cells.append("X")
                elif state.white & bit:
                    cells.append("O")
                else:
                    cells.append(".")
            rows.append(f"{r + 1} " + " ".join(cells))
        mover = "black (X)" if state.to_move == 1 else "white (O)"
        rows.append(f"to move: {mover}")
        return "\n".join(rows)
