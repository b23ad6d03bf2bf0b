"""Three Reversi move generators, one answer.

The scalar game and the C kernel flood runs with a parallel-prefix
fill over an edge-masked opponent board; the NumPy lockstep driver
walks five single steps with a mask after every shift.  They share no
code, so agreement on *arbitrary* disjoint board pairs -- not only
positions a game can reach -- is evidence for all three.  Without a C
toolchain the C leg drops out and scalar is still held to NumPy.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compiled import load_library
from repro.games.reversi import flips_for_move, mobility
from repro.games.reversi_batch import flips_batch, mobility_batch
from repro.util.bitops import U64, bits_of, square_mask

pytestmark = pytest.mark.compiled

#: (row step, column step) of the eight othello directions.
DIRECTIONS = [
    (0, 1), (0, -1), (1, 0), (-1, 0), (1, 1), (1, -1), (-1, 1), (-1, -1)
]

u64s = st.integers(min_value=0, max_value=2**64 - 1)


def _u64(values) -> np.ndarray:
    return np.array(values, dtype=U64)


def empty_squares(own: int, opp: int) -> list[int]:
    """Every empty square as a one-bit mask."""
    return [1 << sq for sq in bits_of(~(own | opp) & (2**64 - 1))]


def all_mobility(own: int, opp: int) -> int:
    """``mobility`` of one board pair, asserted equal across the
    scalar, NumPy and (when built) C generators."""
    want = mobility(own, opp)
    o, p = _u64([own]), _u64([opp])
    assert int(mobility_batch(o, p)[0]) == want
    lib = load_library()
    if lib is not None:
        out = np.empty(1, dtype=U64)
        lib.repro_reversi_mobility(
            1, o.ctypes.data, p.ctypes.data, out.ctypes.data
        )
        assert int(out[0]) == want
    return want


def all_flips(own: int, opp: int, move_bits: list[int]) -> list[int]:
    """``flips_for_move`` for each move bit, asserted equal likewise."""
    want = [flips_for_move(own, opp, mb) for mb in move_bits]
    n = len(move_bits)
    o, p = np.full(n, own, dtype=U64), np.full(n, opp, dtype=U64)
    m = _u64(move_bits)
    assert [int(f) for f in flips_batch(o, p, m)] == want
    lib = load_library()
    if lib is not None:
        out = np.empty(n, dtype=U64)
        lib.repro_reversi_flips(
            n, o.ctypes.data, p.ctypes.data, m.ctypes.data, out.ctypes.data
        )
        assert [int(f) for f in out] == want
    return want


@settings(max_examples=300, deadline=None)
@given(u64s, u64s, u64s)
def test_arbitrary_disjoint_boards_agree(a, b, c):
    # Sparse own discs among dense opponent discs make long runs likely.
    own = a & b
    opp = c & ~own
    all_mobility(own, opp)
    empties = empty_squares(own, opp)
    if empties:
        # Every empty square, legal move or not: an unbracketed run
        # must flip nothing in all three.
        all_flips(own, opp, empties)


def _line(row, col, dr, dc, length):
    return [(row + i * dr, col + i * dc) for i in range(length)]


def _edge_start(dr, dc):
    """A square from which 8 squares fit on the board along (dr, dc)."""
    row = 0 if dr >= 0 else 7
    col = 0 if dc >= 0 else 7
    return row, col


@pytest.mark.parametrize("dr,dc", DIRECTIONS)
def test_six_disc_run_is_bracketed(dr, dc):
    """The longest run an 8x8 board can flip: move, six discs, own."""
    squares = _line(*_edge_start(dr, dc), dr, dc, 8)
    move = square_mask(*squares[0])
    run = sum(square_mask(*sq) for sq in squares[1:7])
    own = square_mask(*squares[7])
    assert all_mobility(own, run) == move
    assert all_flips(own, run, [move]) == [run]
    # One short of bracketed: the far end is empty, nothing flips.
    assert all_mobility(0, run) == 0
    assert all_flips(0, run, [move]) == [0]


@pytest.mark.parametrize("row", [1, 3, 6])
@pytest.mark.parametrize("dr", [-1, 0, 1])
@pytest.mark.parametrize("dc", [-1, 1])
def test_runs_reaching_an_edge_column_do_not_wrap(row, dr, dc):
    """own next to an opponent disc on column 0 / 7: the square one
    more shift along is on another row, and must not become a move."""
    edge = 7 if dc == 1 else 0
    own = square_mask(row, edge - dc)
    opp = square_mask(row + dr, edge)
    assert all_mobility(own, opp) == 0
    assert not any(all_flips(own, opp, empty_squares(own, opp)))
