"""Vectorised lockstep Reversi -- the reproduction of the paper's CUDA
playout kernel.

Each NumPy row is one SIMT lane playing an independent random game.
Boards are stored from the side-to-move's perspective (``own``/``opp``)
so one code path serves both colours; a lane terminates after two
consecutive passes, exactly like the scalar rules.  The flip/mobility
logic floods runs one square per step with an edge mask after every
shift.  The scalar engine and the C kernel reach the same answers with
a parallel-prefix fill over an edge-masked opponent board instead, so
this module is their independent oracle: keep its fill as it is (the
three are cross-checked property-style on arbitrary boards in
``tests/games/test_reversi_movegen.py``; docs/fusion.md has the
argument for why the two forms agree).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.games.batch import BatchGame, select_random_bit
from repro.games.reversi import Reversi, ReversiState
from repro.rng import BatchXorShift128Plus
from repro.util.bitops import NOT_COL_0, NOT_COL_7, U64, bit_count_u64

_ZERO = U64(0)
_FULL = U64(0xFFFF_FFFF_FFFF_FFFF)

# The eight othello directions split into a left-shift group
# (E, S, SE, SW) and a right-shift group (W, N, NW, NE), each processed
# as one stacked (4, n) array so a propagation pass costs a handful of
# NumPy calls instead of eight separate direction loops.  Edge masks
# kill wrap-around: shifting toward the east can never land in column 0,
# toward the west never in column 7.
_L_AMOUNT = np.array([1, 8, 9, 7], dtype=U64).reshape(4, 1)
_L_MASK = np.array(
    [NOT_COL_0, 0xFFFF_FFFF_FFFF_FFFF, NOT_COL_0, NOT_COL_7], dtype=U64
).reshape(4, 1)
_R_AMOUNT = _L_AMOUNT
_R_MASK = np.array(
    [NOT_COL_7, 0xFFFF_FFFF_FFFF_FFFF, NOT_COL_7, NOT_COL_0], dtype=U64
).reshape(4, 1)


def _or_reduce4(stack: np.ndarray) -> np.ndarray:
    return np.bitwise_or.reduce(stack, axis=0)


def _propagate(
    seed: np.ndarray, opp: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Flood ``seed`` through contiguous ``opp`` discs in all eight
    directions; returns the left-group and right-group flood stacks
    (each ``(4, n)``).  One scratch buffer per group keeps the hot loop
    allocation-free."""
    xl = ((seed << _L_AMOUNT) & _L_MASK) & opp
    xr = ((seed >> _R_AMOUNT) & _R_MASK) & opp
    tl = np.empty_like(xl)
    tr = np.empty_like(xr)
    for _ in range(5):
        np.left_shift(xl, _L_AMOUNT, out=tl)
        tl &= _L_MASK
        tl &= opp
        xl |= tl
        np.right_shift(xr, _R_AMOUNT, out=tr)
        tr &= _R_MASK
        tr &= opp
        xr |= tr
    return xl, xr


def mobility_batch(own: np.ndarray, opp: np.ndarray) -> np.ndarray:
    """Vectorised legal-move bitboards (same answers as the scalar
    :func:`repro.games.reversi.mobility`)."""
    empty = ~(own | opp)
    xl, xr = _propagate(own, opp)
    xl <<= _L_AMOUNT
    xl &= _L_MASK
    xr >>= _R_AMOUNT
    xr &= _R_MASK
    moves = _or_reduce4(xl) | _or_reduce4(xr)
    return moves & empty


def flips_batch(
    own: np.ndarray, opp: np.ndarray, move_bits: np.ndarray
) -> np.ndarray:
    """Vectorised flipped-disc bitboards for one move bit per lane."""
    xl, xr = _propagate(move_bits, opp)
    bounded_l = ((xl << _L_AMOUNT) & _L_MASK) & own
    bounded_r = ((xr >> _R_AMOUNT) & _R_MASK) & own
    xl[bounded_l == _ZERO] = _ZERO
    xr[bounded_r == _ZERO] = _ZERO
    return _or_reduce4(xl) | _or_reduce4(xr)


@dataclass
class ReversiBatch:
    """Struct-of-arrays state for a batch of Reversi games."""

    own: np.ndarray  # uint64, discs of the side to move
    opp: np.ndarray  # uint64
    to_move: np.ndarray  # int8, +1 black / -1 white
    passed: np.ndarray  # bool, previous ply was a pass
    done: np.ndarray  # bool

    def __len__(self) -> int:
        return self.own.shape[0]


class BatchReversi(BatchGame):
    """Lockstep random-playout engine for Reversi."""

    name = "reversi"
    max_game_length = Reversi.max_game_length

    def make_batch(
        self, states: Sequence[ReversiState], lanes_per_state: int
    ) -> ReversiBatch:
        if lanes_per_state <= 0:
            raise ValueError(
                f"lanes_per_state must be positive, got {lanes_per_state}"
            )
        black = np.repeat(
            np.array([s.black for s in states], dtype=U64), lanes_per_state
        )
        white = np.repeat(
            np.array([s.white for s in states], dtype=U64), lanes_per_state
        )
        to_move = np.repeat(
            np.array([s.to_move for s in states], dtype=np.int8),
            lanes_per_state,
        )
        is_black = to_move == 1
        own = np.where(is_black, black, white)
        opp = np.where(is_black, white, black)
        n = own.shape[0]
        batch = ReversiBatch(
            own=own,
            opp=opp,
            to_move=to_move,
            passed=np.zeros(n, dtype=bool),
            done=np.zeros(n, dtype=bool),
        )
        # A terminal input state must be recognised immediately.
        mob_own = mobility_batch(own, opp)
        mob_opp = mobility_batch(opp, own)
        batch.done = (mob_own == _ZERO) & (mob_opp == _ZERO)
        return batch

    def step(self, batch: ReversiBatch, rng: BatchXorShift128Plus) -> int:
        act = ~batch.done
        moves = mobility_batch(batch.own, batch.opp)
        move_bits = select_random_bit(moves, rng)
        has_move = move_bits != _ZERO
        flips = flips_batch(batch.own, batch.opp, move_bits)
        new_own = batch.own | move_bits | flips
        new_opp = batch.opp & ~flips
        # Perspective swap covers both movers (flip applied) and passers
        # (boards unchanged, colours swap).
        batch.own = np.where(act, new_opp, batch.own)
        batch.opp = np.where(act, new_own, batch.opp)
        batch.to_move = np.where(act, -batch.to_move, batch.to_move)
        pass_now = act & ~has_move
        batch.done = batch.done | (pass_now & batch.passed)
        batch.passed = np.where(act, pass_now, batch.passed)
        return int((~batch.done).sum())

    def active(self, batch: ReversiBatch) -> np.ndarray:
        return ~batch.done

    def winners(self, batch: ReversiBatch) -> np.ndarray:
        diff = self.scores(batch)
        return np.sign(diff).astype(np.int8)

    def zobrist_plane_arrays(
        self, batch: ReversiBatch
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        # Boards are stored from the side-to-move's perspective;
        # un-swap to absolute colours so keys match the scalar game.
        is_black = batch.to_move == 1
        black = np.where(is_black, batch.own, batch.opp)
        white = np.where(is_black, batch.opp, batch.own)
        return black, white, batch.to_move

    def scores(self, batch: ReversiBatch) -> np.ndarray:
        is_black = batch.to_move == 1
        black = np.where(is_black, batch.own, batch.opp)
        white = np.where(is_black, batch.opp, batch.own)
        return (
            bit_count_u64(black).astype(np.int16)
            - bit_count_u64(white).astype(np.int16)
        )

    def lane_state(self, batch: ReversiBatch, i: int) -> ReversiState:
        """Extract lane ``i`` as a scalar state (testing/debug aid)."""
        tm = int(batch.to_move[i])
        own, opp = int(batch.own[i]), int(batch.opp[i])
        black, white = (own, opp) if tm == 1 else (opp, own)
        return ReversiState(black, white, tm)
