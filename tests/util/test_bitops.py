"""Unit and property tests for bitboard primitives."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.util import bitops as bo

U64_MAX = 0xFFFF_FFFF_FFFF_FFFF
boards = st.integers(min_value=0, max_value=U64_MAX)


@given(boards)
def test_popcount_matches_python(b):
    assert bo.bit_count(b) == bin(b).count("1")
    arr = np.array([b], dtype=bo.U64)
    assert int(bo.bit_count_u64(arr)[0]) == bo.bit_count(b)


@given(boards)
def test_bits_of_reconstructs(b):
    assert sum(1 << i for i in bo.bits_of(b)) == b


def test_square_mask_round_trip():
    for r in range(8):
        for c in range(8):
            assert list(bo.bits_of(bo.square_mask(r, c))) == [r * 8 + c]


def test_square_mask_bounds():
    with pytest.raises(ValueError):
        bo.square_mask(8, 0)
    with pytest.raises(ValueError):
        bo.square_mask(0, -1)

