"""Bitboard primitives over 64-bit words, scalar and vectorised.

An 8x8 board is packed into one 64-bit word.  Square ``(row, col)`` maps
to bit ``row * 8 + col`` with row 0 at the top and col 0 at the left
("a"-file).  Directional shifts mask out wrap-around across board edges
with the column masks below, so flood-fill style move generation
(Kogge-Stone) is a handful of shift/and operations -- the same trick the
paper's CUDA playout kernel relies on, and the reason a whole batch of
boards can be advanced in lockstep with NumPy.  Each game inlines its
own shifts.
"""

from __future__ import annotations

import numpy as np

#: NumPy dtype used for all bitboards.
U64 = np.uint64

#: All 64 bits set.
FULL_MASK = 0xFFFF_FFFF_FFFF_FFFF
#: Bits of every square not in column 0 (the left edge).
NOT_COL_0 = 0xFEFE_FEFE_FEFE_FEFE
#: Bits of every square not in column 7 (the right edge).
NOT_COL_7 = 0x7F7F_7F7F_7F7F_7F7F


def bit_count(b: int) -> int:
    """Population count of a scalar bitboard."""
    return int(b).bit_count()


def bit_count_u64(b: np.ndarray) -> np.ndarray:
    """Population count of every word in a uint64 array."""
    return np.bitwise_count(b)


def bits_of(b: int):
    """Yield the index of every set bit, lowest first."""
    while b:
        low = b & -b
        yield low.bit_length() - 1
        b ^= low


def square_mask(row: int, col: int) -> int:
    """One-bit mask for square ``(row, col)`` on the 8x8 board."""
    if not (0 <= row < 8 and 0 <= col < 8):
        raise ValueError(f"square off the board: ({row}, {col})")
    return 1 << (row * 8 + col)

