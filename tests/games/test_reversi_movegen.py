"""Three Reversi move generators, one answer.

The scalar game and the C kernel flood runs with a parallel-prefix
fill over an edge-masked opponent board; the NumPy lockstep driver
walks five single steps with a mask after every shift.  They share no
code, so agreement on *arbitrary* disjoint board pairs -- not only
positions a game can reach -- is evidence for all three.  The C leg
runs on every kernel body this host runs (``playout.c``, "The two
bodies": the portable fills, and the fast body's four directions to a
vector), each pinned in turn.  Without a C toolchain the C leg drops
out and scalar is still held to NumPy.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.compiled import load_library
from repro.compiled.build import kernel_bodies, pinned_kernel_body
from repro.games.reversi import flips_for_move, mobility
from repro.games.reversi_batch import flips_batch, mobility_batch
from repro.util.bitops import U64, bits_of, square_mask

pytestmark = pytest.mark.compiled

#: (row step, column step) of the eight othello directions.
DIRECTIONS = [
    (0, 1), (0, -1), (1, 0), (-1, 0), (1, 1), (1, -1), (-1, 1), (-1, -1)
]

u64s = st.integers(min_value=0, max_value=2**64 - 1)

#: The board's edge lines: a shift that runs off one of them must drop
#: the disc, not wrap it onto the next row or past the top / bottom.
COLS_0_7 = sum(square_mask(r, c) for r in range(8) for c in (0, 7))
ROWS_0_7 = sum(square_mask(r, c) for r in (0, 7) for c in range(8))
EDGE_SQUARES = list(bits_of(COLS_0_7 | ROWS_0_7))


def _u64(values) -> np.ndarray:
    return np.array(values, dtype=U64)


def empty_squares(own: int, opp: int) -> list[int]:
    """Every empty square as a one-bit mask."""
    return [1 << sq for sq in bits_of(~(own | opp) & (2**64 - 1))]


def c_legs(export: str, *columns: np.ndarray) -> dict[str, list[int]]:
    """The library's ``repro_reversi_<export>`` on ``columns``, under
    each kernel body this host runs (none without a library)."""
    out = np.empty(len(columns[0]), dtype=U64)
    legs = {}
    for body in kernel_bodies():
        with pinned_kernel_body(body):
            getattr(load_library(), f"repro_reversi_{export}")(
                len(out), *(c.ctypes.data for c in columns), out.ctypes.data
            )
        legs[body] = [int(v) for v in out]
    return legs


def mobility_rows(own: list[int], opp: list[int]) -> list[int]:
    """``mobility`` of each board pair, asserted equal across the
    scalar, NumPy and every C generator."""
    want = [mobility(o, p) for o, p in zip(own, opp)]
    o, p = _u64(own), _u64(opp)
    assert [int(m) for m in mobility_batch(o, p)] == want
    for body, got in c_legs("mobility", o, p).items():
        assert got == want, body
    return want


def flips_rows(own: list[int], opp: list[int], moves: list[int]) -> list[int]:
    """``flips_for_move`` of each (own, opp, move bit) row, asserted
    equal likewise."""
    want = [flips_for_move(o, p, m) for o, p, m in zip(own, opp, moves)]
    o, p, m = _u64(own), _u64(opp), _u64(moves)
    assert [int(f) for f in flips_batch(o, p, m)] == want
    for body, got in c_legs("flips", o, p, m).items():
        assert got == want, body
    return want


def all_mobility(own: int, opp: int) -> int:
    """``mobility`` of one board pair, asserted equal everywhere."""
    return mobility_rows([own], [opp])[0]


def all_flips(own: int, opp: int, move_bits: list[int]) -> list[int]:
    """``flips_for_move`` for each move bit, asserted equal everywhere."""
    n = len(move_bits)
    return flips_rows([own] * n, [opp] * n, move_bits)


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


@settings(max_examples=200, deadline=None)
@given(u64s, u64s, u64s, st.sampled_from([COLS_0_7, ROWS_0_7]), st.booleans())
@example(0, 0, 0, COLS_0_7, False)
@example(2**64 - 1, COLS_0_7 ^ ROWS_0_7, 2**64 - 1, COLS_0_7, True)
def test_boards_with_one_side_on_the_edge_lines_agree(a, b, c, edge, mine):
    """One side's discs only on columns 0 / 7 (or rows 0 / 7), the
    other's anywhere: every run that reaches an edge stops there."""
    own, opp = a & b, c
    if mine:
        own &= edge
    else:
        opp &= edge
    opp &= ~own
    all_mobility(own, opp)
    empties = empty_squares(own, opp)
    if empties:
        all_flips(own, opp, empties)


def test_one_edge_disc_against_every_own_square():
    """One opponent disc on each edge square, one own disc on each
    other square: every pair's moves, and the flips of every empty
    square, agree -- a wrap past column 0 / 7 or row 0 / 7 would make a
    move or a flip where the other generators see none."""
    own, opp = zip(
        *((1 << o, 1 << e) for e in EDGE_SQUARES for o in range(64) if o != e)
    )
    assert any(mobility_rows(list(own), list(opp)))
    rows = [
        (o, p, m) for o, p in zip(own, opp) for m in empty_squares(o, p)
    ]
    assert any(flips_rows(*map(list, zip(*rows))))
