"""Differential wall for the one-call launch entry
(``repro_<game>_launch`` behind :func:`repro.compiled.launch_compiled`).

The entry takes states and a lane-seed range and does in C what the
NumPy composition does in three calls -- ``for_lanes`` (lane seeding),
``make_batch`` (perspective swap, terminal-at-entry) and
``run_playouts_tracked`` (the move loop).  That composition, spelled out
below, is the oracle: winners and finish steps must agree lane by lane
for every game, width, lane offset and root mix.  Without a C toolchain
the entry falls back to the NumPy body and the comparisons hold
trivially; the tests that need the kernel itself skip.
"""

import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.compiled import (
    COMPILED_GAMES,
    compiled_available,
    launch_compiled,
    load_library,
    runner,
)
from repro.compiled.build import lazy_export
from repro.core import executors
from repro.core.executors import launch_numpy, playout_launcher
from repro.games import make_batch_game, make_game
from repro.games.batch import run_playouts_tracked
from repro.games.connect4 import BOARD_MASK, Connect4State
from repro.games.reversi import PASS_MOVE, ReversiState
from repro.games.tictactoe import TicTacToeState
from repro.gpu import TESLA_C2050, DevicePool
from repro.rng import BatchXorShift128Plus
from repro.rng import batch as rng_batch
from repro.serve import FusedBatcher
from repro.util.bitops import FULL_MASK, square_mask
from repro.util.clock import Clock

pytestmark = pytest.mark.compiled

GAMES = sorted(COMPILED_GAMES)
#: 1, the median serving launch, either side of the NumPy driver's
#: compaction size, and one wide batch.
WIDTHS = [1, 3, 63, 64, 65, 1000]
LANE_OFFSETS = [0, 7, 2**40]

needs_kernel = pytest.mark.skipif(
    not compiled_available(), reason="no compiled kernel library on this host"
)


def composition(bg, states, family_seed, lo=0):
    """The three calls the entry replaces, verbatim."""
    rng = BatchXorShift128Plus.for_lanes(family_seed, lo, lo + len(states))
    tracked = run_playouts_tracked(bg, bg.make_batch(list(states), 1), rng)
    return tracked.winners, tracked.finish_steps


def assert_same(got, want):
    for got_column, want_column in zip(got, want):
        assert got_column.dtype == want_column.dtype
        np.testing.assert_array_equal(got_column, want_column)


# -- roots -------------------------------------------------------------------


def _walk(game, plies, seed):
    draw = np.random.default_rng(seed)
    state = game.initial_state()
    for _ in range(plies):
        if game.is_terminal(state):
            break
        state = game.apply(state, int(draw.choice(game.legal_moves(state))))
    return state


def _connect4_full_board():
    """A full board with no four in a row: columns in pairs, rows
    alternating, so no run in any direction exceeds two."""
    p1 = sum(
        1 << (7 * col + row)
        for col in range(7)
        for row in range(6)
        if (col // 2 + row) % 2 == 0
    )
    return Connect4State(p1, BOARD_MASK & ~p1, 1)


def _special_roots(game_name):
    """Hand-built roots: what the entry decides before the first ply."""
    if game_name == "reversi":
        corner, beside, far = (
            square_mask(0, 0), square_mask(0, 1), square_mask(7, 7)
        )
        checker = 0xAA55AA55AA55AA55
        return {
            # Black (b1) cannot move, white (a1) can: plays on.
            "forced-pass": ReversiState(beside, corner, 1),
            # Out of each other's reach: over at entry, not two passes.
            "no-move-black": ReversiState(corner, far, 1),
            "no-move-white": ReversiState(corner, far, -1),
            "full-board": ReversiState(checker, FULL_MASK & ~checker, -1),
        }
    if game_name == "connect4":
        # Bit 7 * col + row: four along the bottom row, the other
        # side's discs stacked on them (and one in column 4).
        bottom_row = sum(1 << (7 * col) for col in range(4))
        on_top = sum(1 << (7 * col + 1) for col in range(3))
        return {
            "four-p1": Connect4State(bottom_row, on_top, -1),
            "four-p2": Connect4State(on_top | 1 << 28, bottom_row, 1),
            "full-board": _connect4_full_board(),
        }
    return {
        "line-x": TicTacToeState(0b000000111, 0b000011000, -1),
        "line-o": TicTacToeState(0b100011000, 0b000000111, 1),
        # The drawn board of tests/compiled/test_runner.py.
        "full-board": TicTacToeState(0b110001101, 0b001110010, -1),
    }


def root_pool(game_name):
    """Initial position, random mid-game positions with either side to
    move, and the hand-built roots."""
    game = make_game(game_name)
    # A walk stops early at a terminal position (200 plies always do).
    walks = [
        _walk(game, plies, seed)
        for seed, plies in enumerate(
            [1, 2, 3, 4, 5, 6, 8, 11, 17, 24, 33, 47, 200]
        )
    ]
    pool = [game.initial_state(), *walks, *_special_roots(game_name).values()]
    assert {game.to_move(s) for s in pool} == {1, -1}
    return pool


@pytest.mark.parametrize("game_name", GAMES)
def test_special_roots_are_what_they_claim(game_name):
    game = make_game(game_name)
    roots = _special_roots(game_name)
    for label, state in roots.items():
        if label == "forced-pass":
            assert game.legal_moves(state) == (PASS_MOVE,)
        else:
            assert game.is_terminal(state), label
    if game_name != "reversi":
        assert game.winner(roots["full-board"]) == 0
    bg = make_batch_game(game_name)
    winners, finish = launch_compiled(bg, list(roots.values()), 5)
    for (label, state), winner, steps in zip(roots.items(), winners, finish):
        if label == "forced-pass":
            assert steps == 4  # pass, c1, pass, pass
        else:
            # Over at entry: finish step 0 (Reversi: *not* two passes).
            assert steps == 0 and winner == game.winner(state), label


# -- (a) the entry against the composition -----------------------------------


@pytest.mark.parametrize("game_name", GAMES)
@pytest.mark.parametrize("n", WIDTHS)
def test_launch_matches_composition(game_name, n):
    bg = make_batch_game(game_name)
    pool = root_pool(game_name)
    for lo in LANE_OFFSETS:
        for seed in (0, 1, 2):
            draw = np.random.default_rng([seed, n, lo])
            states = [pool[i] for i in draw.integers(len(pool), size=n)]
            family_seed = int(draw.integers(2**63))
            want = composition(bg, states, family_seed, lo)
            assert_same(launch_compiled(bg, states, family_seed, lo), want)
            assert_same(launch_numpy(bg, states, family_seed, lo), want)


@pytest.mark.parametrize("game_name", GAMES)
def test_every_pool_root_alone(game_name):
    """One lane per root, so no root hides behind another's draw."""
    bg = make_batch_game(game_name)
    for i, state in enumerate(root_pool(game_name)):
        for lo in (0, 1, 2):
            assert_same(
                launch_compiled(bg, [state], 100 + i, lo),
                composition(bg, [state], 100 + i, lo),
            )


# -- (b) geometry independence -----------------------------------------------


@pytest.mark.parametrize("game_name", GAMES)
@pytest.mark.parametrize("k", [1, 64])
def test_launch_is_geometry_independent(game_name, k):
    bg = make_batch_game(game_name)
    pool = root_pool(game_name)
    n = 130
    states = [pool[i % len(pool)] for i in range(n)]
    whole = launch_compiled(bg, states, 77)
    head = launch_compiled(bg, states[:k], 77, 0)
    tail = launch_compiled(bg, states[k:], 77, k)
    assert_same([np.concatenate(pair) for pair in zip(head, tail)], whole)


# -- (c) lane seeding --------------------------------------------------------

_U64 = st.integers(min_value=0, max_value=2**64 - 1)


def _kernel_lane_states(n, base, lo):
    s0 = np.empty(n, dtype=np.uint64)
    s1 = np.empty(n, dtype=np.uint64)
    lazy_export(load_library(), "lane_states")(
        n, base, lo, s0.ctypes.data, s1.ctypes.data
    )
    return s0, s1


@needs_kernel
@settings(max_examples=200, deadline=None)
@given(
    base=st.one_of(_U64, st.integers(2**64 - 64, 2**64 - 1)),
    lo=st.integers(0, 2**62),
    n=st.integers(1, 40),
)
# base + 2 * lane wraps inside the range; and lo at the top of it.
@example(base=2**64 - 5, lo=0, n=8)
@example(base=2**64 - 1, lo=2**62, n=8)
@example(base=1, lo=2**63 - 8, n=8)
def test_lane_states_match_python(base, lo, n):
    # `_lane_states` hashes its seed into `base`; hand it `base` itself.
    with mock.patch.object(rng_batch, "derive_seed", lambda seed: seed):
        want = rng_batch._lane_states(base, lo, lo + n)
    assert_same(_kernel_lane_states(n, base, lo), want)


# -- edge cases the seam states ----------------------------------------------

BODIES = [
    pytest.param(playout_launcher(playout), id=playout)
    for playout in executors.PLAYOUT_EXECUTORS
]


@pytest.mark.parametrize("launch", BODIES)
def test_empty_launch_returns_empty_columns(launch, monkeypatch):
    def no_library(game_name):
        raise AssertionError("an empty launch must not reach the library")

    monkeypatch.setattr(runner, "_playout_library", no_library)
    winners, finish = launch(make_batch_game("reversi"), [], 3)
    assert winners.shape == finish.shape == (0,)
    assert winners.dtype == np.int8 and finish.dtype == np.int64


@pytest.mark.parametrize("launch", BODIES)
def test_lane_range_is_checked(launch):
    bg = make_batch_game("tictactoe")
    states = [make_game("tictactoe").initial_state()] * 3
    with pytest.raises(ValueError, match="lane range"):
        launch(bg, states, 3, -1)
    with pytest.raises(ValueError, match="lane range"):
        launch(bg, [], 3, -1)
    # The last three lanes below 2**63 exist; the next one does not.
    assert_same(
        launch(bg, states, 3, 2**63 - 3),
        composition(bg, states, 3, 2**63 - 3),
    )
    with pytest.raises(ValueError, match="lane range"):
        launch(bg, states, 3, 2**63 - 2)


@pytest.mark.parametrize("launch", BODIES)
@pytest.mark.parametrize("game_name", GAMES)
def test_game_longer_than_max_game_length_raises(launch, game_name):
    bg = make_batch_game(game_name)
    bg.max_game_length = 3  # shadows the class attribute on this instance
    states = [make_game(game_name).initial_state()] * 4
    with pytest.raises(
        RuntimeError, match="exceeded max_game_length=3; engine bug"
    ):
        launch(bg, states, 1)


@needs_kernel
def test_columns_must_be_what_the_kernel_reads():
    bg = make_batch_game("tictactoe")
    kernel = lazy_export(load_library(), "launch", "tictactoe")
    planes = np.zeros((2, 8), dtype=np.uint64)
    to_move = np.ones(8, dtype=np.int8)
    runner.launch_columns(kernel, bg, planes[0], planes[1], to_move, 1)
    for bad in (
        (planes[0, :4], planes[1], to_move),  # shorter than the lane count
        (planes[0], planes[1].astype(np.int64), to_move),
        (planes[0], planes[1], to_move.astype(np.int64)),
        (planes[0, ::2], planes[1, ::2], to_move[:4]),  # strided
    ):
        with pytest.raises(TypeError, match="launch column"):
            runner.launch_columns(kernel, bg, *bad, 1)
    # The kernel only reads the columns: read-only ones launch alike.
    want = runner.launch_columns(kernel, bg, planes[0], planes[1], to_move, 1)
    planes.setflags(write=False)
    to_move.setflags(write=False)
    got = runner.launch_columns(kernel, bg, planes[0], planes[1], to_move, 1)
    assert [a.tolist() for a in got] == [a.tolist() for a in want]
    # No lanes, nothing to address: two empty outputs.
    none = runner.launch_columns(
        kernel, bg, planes[0, :0], planes[1, :0], to_move[:0], 1
    )
    assert [(a.dtype, a.shape) for a in none] == [
        (np.int8, (0,)), (np.int64, (0,))
    ]


def test_address_refuses_a_buffer_the_kernel_could_not_write():
    """``_address`` is for buffers a kernel writes: a read-only array
    is a ``TypeError`` unless the caller says it is only read."""
    array = np.arange(4, dtype=np.int64)
    assert runner._address(array) == array.ctypes.data
    assert runner._address(array[1:]) == array.ctypes.data + 8
    array.setflags(write=False)
    with pytest.raises(TypeError, match="not writable"):
        runner._address(array)
    assert runner._address(array, written=False) == array.ctypes.data


@needs_kernel
def test_staging_grows_geometrically_and_is_reused():
    bg = make_batch_game("connect4")
    state = make_game("connect4").initial_state()
    launch_compiled(bg, [state] * 200, 1)
    planes = runner._staged_planes
    launch_compiled(bg, [state] * 3, 1)
    launch_compiled(make_batch_game("tictactoe"), [(0, 0, 1)] * 200, 1)
    assert runner._staged_planes is planes
    launch_compiled(bg, [state] * (planes.shape[1] + 1), 1)
    assert runner._staged_planes.shape[1] == 2 * planes.shape[1]
    assert runner._staged_to_move.shape[0] == 2 * planes.shape[1]


# -- (e) the serving batcher through the seam --------------------------------


def _tick(playout, demand):
    pool = DevicePool((TESLA_C2050,) * 2, Clock())
    batcher = FusedBatcher(pool, 9, playout=playout)
    spans = {
        (game, i): (game, i, i + 1)
        for game, states in demand.items()
        for i in range(len(states))
    }
    answers = []
    for _ in range(3):
        by_game, launches = batcher.execute_demand(demand, spans)
        for launch in launches:
            pool.synchronize(launch.lease)
        answers.append(by_game)
    pool.assert_drained()
    return answers


def _demand():
    return {
        name: [root_pool(name)[i] for i in (0, 3, 5, 7, -1)]
        for name in GAMES
    }


@needs_kernel
def test_fused_tick_takes_the_compiled_entry(monkeypatch):
    """With the NumPy driver unusable the tick still completes: the
    compiled entry really ran, no silent fallback."""
    want = _tick("numpy", _demand())

    def unusable(*args, **kwargs):
        raise AssertionError("the NumPy driver ran under playout='compiled'")

    monkeypatch.setattr(executors, "run_playouts_tracked", unusable)
    monkeypatch.setattr(runner, "run_playouts_tracked", unusable)
    assert _tick("compiled", _demand()) == want


def test_fused_tick_falls_back_without_a_library(monkeypatch, compiled_env):
    want = _tick("numpy", _demand())
    compiled_env("0")

    def unusable(*args):
        raise AssertionError("REPRO_COMPILED=0 reached the kernel lookup")

    monkeypatch.setattr(runner, "lazy_export", unusable)
    got = _tick("compiled", _demand())
    assert got == want
    assert all(type(w) is int for w, _ in got[0]["reversi"])


def test_breakthrough_through_the_seam_warns_once(monkeypatch):
    monkeypatch.setattr(runner, "_WARNED_GAMES", set())
    bg = make_batch_game("breakthrough")
    states = [make_game("breakthrough").initial_state()] * 12
    want = composition(bg, states, 4, 2)
    with pytest.warns(RuntimeWarning, match="breakthrough") as caught:
        assert_same(launch_compiled(bg, states, 4, 2), want)
    assert len(caught) == 1
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert_same(launch_compiled(bg, states, 4, 2), want)
        pool = DevicePool((TESLA_C2050,) * 2, Clock())
        FusedBatcher(pool, 9, playout="compiled").execute_demand(
            {"breakthrough": states}
        )
