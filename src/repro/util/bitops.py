"""Bitboard primitives over 64-bit words, scalar and vectorised.

An 8x8 board is packed into one 64-bit word.  Square ``(row, col)`` maps
to bit ``row * 8 + col`` with row 0 at the top and col 0 at the left
("a"-file).  Directional shifts mask out wrap-around across board edges
so flood-fill style move generation (Kogge-Stone) is a handful of
shift/and operations -- the same trick the paper's CUDA playout kernel
relies on, and the reason a whole batch of boards can be advanced in
lockstep with NumPy.

Every ``shift_*`` function accepts either a Python ``int`` or a NumPy
``uint64`` array and returns the same kind, so scalar and array callers
share one implementation.  (The Reversi engines inline their own
shifts: the type dispatch here costs more than the shift.)
"""

from __future__ import annotations

from typing import Union

import numpy as np

#: NumPy dtype used for all bitboards.
U64 = np.uint64

Board = Union[int, np.ndarray]

#: All 64 bits set.
FULL_MASK = 0xFFFF_FFFF_FFFF_FFFF
#: Bits of every square not in column 0 (the left edge).
NOT_COL_0 = 0xFEFE_FEFE_FEFE_FEFE
#: Bits of every square not in column 7 (the right edge).
NOT_COL_7 = 0x7F7F_7F7F_7F7F_7F7F

_ONE = U64(1)
_EIGHT = U64(8)
_U_NOT_COL_0 = U64(NOT_COL_0)
_U_NOT_COL_7 = U64(NOT_COL_7)


def _is_array(b: Board) -> bool:
    return isinstance(b, np.ndarray)


def shift_east(b: Board) -> Board:
    """Move every bit one column to the right (col + 1)."""
    if _is_array(b):
        return (b << _ONE) & _U_NOT_COL_0
    return ((b << 1) & NOT_COL_0) & FULL_MASK


def shift_west(b: Board) -> Board:
    """Move every bit one column to the left (col - 1)."""
    if _is_array(b):
        return (b >> _ONE) & _U_NOT_COL_7
    return (b >> 1) & NOT_COL_7


def shift_south(b: Board) -> Board:
    """Move every bit one row down (row + 1)."""
    if _is_array(b):
        return b << _EIGHT
    return (b << 8) & FULL_MASK


def shift_north(b: Board) -> Board:
    """Move every bit one row up (row - 1)."""
    if _is_array(b):
        return b >> _EIGHT
    return b >> 8


def shift_northeast(b: Board) -> Board:
    return shift_north(shift_east(b))


def shift_northwest(b: Board) -> Board:
    return shift_north(shift_west(b))


def shift_southeast(b: Board) -> Board:
    return shift_south(shift_east(b))


def shift_southwest(b: Board) -> Board:
    return shift_south(shift_west(b))


#: The eight directional shifts, in a fixed order used by move generators.
ALL_SHIFTS = (
    shift_east,
    shift_west,
    shift_south,
    shift_north,
    shift_northeast,
    shift_northwest,
    shift_southeast,
    shift_southwest,
)


def bit_count(b: int) -> int:
    """Population count of a scalar bitboard."""
    return int(b).bit_count()


def bit_count_u64(b: np.ndarray) -> np.ndarray:
    """Population count of every word in a uint64 array."""
    return np.bitwise_count(b)


def lsb(b: int) -> int:
    """The lowest set bit of ``b`` as a one-bit mask (0 if ``b`` is 0)."""
    return b & -b if b else 0


def bit_index(one_bit: int) -> int:
    """Index (0..63) of a mask with exactly one bit set."""
    if one_bit == 0 or one_bit & (one_bit - 1):
        raise ValueError(f"expected exactly one set bit, got {one_bit:#x}")
    return one_bit.bit_length() - 1


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


def mask_to_square(one_bit: int) -> tuple[int, int]:
    """Inverse of :func:`square_mask`."""
    idx = bit_index(one_bit)
    return divmod(idx, 8)[0], idx % 8


def render_bitboard(b: int, mark: str = "x", empty: str = ".") -> str:
    """ASCII diagram of a scalar bitboard, row 0 on top."""
    rows = []
    for r in range(8):
        row = "".join(
            mark if b >> (r * 8 + c) & 1 else empty for c in range(8)
        )
        rows.append(row)
    return "\n".join(rows)
