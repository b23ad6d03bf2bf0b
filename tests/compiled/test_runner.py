"""Bit-identity wall for the compiled batch-object export.

The compiled C kernels must be indistinguishable from the NumPy
reference at the playout-call level: identical winners, scores and
finish steps for every lane, across games, widths and starting states,
and the same (absent) side effect: both step copies of the caller's
generator and leave it where it stood, wherever the NumPy driver
compacts.  When no C toolchain is available every test still passes --
the runner falls back to the NumPy path, which is trivially identical.
"""

import contextlib
from unittest import mock

import numpy as np
import pytest

from repro.compiled import (
    COMPILED_GAMES,
    compiled_available,
    run_playouts_tracked_compiled,
    unavailable_reason,
)
from repro.games import make_batch_game, make_game
from repro.games.batch import run_playouts_tracked
from repro.games.reversi import PASS_MOVE, Reversi, ReversiState
from repro.games.reversi_batch import ReversiBatch
from repro.games.tictactoe import TicTacToeState
from repro.rng import BatchXorShift128Plus
from repro.util.bitops import U64, square_mask

pytestmark = pytest.mark.compiled

GAMES = sorted(COMPILED_GAMES)
#: Widths straddling the scalar cutoff, the compaction threshold
#: (>= 64) and a wide vectorised batch.
WIDTHS = [1, 3, 63, 64, 200, 1024]


def _mid_state(game_name: str, plies: int, seed: int = 7):
    game = make_game(game_name)
    rng = np.random.default_rng(seed)
    state = game.initial_state()
    for _ in range(plies):
        if game.is_terminal(state):
            break
        moves = game.legal_moves(state)
        state = game.apply(state, int(rng.choice(moves)))
    return state


@pytest.mark.parametrize("game_name", GAMES)
@pytest.mark.parametrize("n", WIDTHS)
def test_initial_state_identical(game_name, n):
    state = make_game(game_name).initial_state()
    _run_both_state(game_name, state, n, seed=11)


def assert_untouched(rng, saved):
    """``rng`` is where ``saved`` (a ``getstate()`` of it) says it was,
    and ``saved`` itself has not moved."""
    got_n, *got_words = rng.getstate()
    want_n, *want_words = saved
    assert got_n == want_n
    for got, want in zip(got_words, want_words):
        np.testing.assert_array_equal(got, want)


@contextlib.contextmanager
def full_width_steps(n):
    """Count the steps generators ``n`` lanes wide take inside the
    block: the list yielded holds their sum afterwards.  The lockstep
    driver steps its full-width copy until its first compaction, and a
    narrower one after it."""
    steps = [0]
    step = BatchXorShift128Plus.next_u64

    def counting(self):
        if self.n == n:
            steps[0] += 1
        return step(self)

    with mock.patch.object(BatchXorShift128Plus, "next_u64", counting):
        yield steps


def _run_both(game_name, make_batch, seed, **compaction):
    """Play ``make_batch()`` (called twice: the drivers mutate it)
    through both drivers; every lane's outcome must be equal, and each
    leaves the caller's generator where it stood.  Returns the NumPy
    result."""
    bg = make_batch_game(game_name)
    ref_batch = make_batch()
    n = len(ref_batch)
    ref_rng = BatchXorShift128Plus(n, seed)
    cmp_rng = BatchXorShift128Plus(n, seed)
    saved = ref_rng.getstate()
    ref = run_playouts_tracked(bg, ref_batch, ref_rng, **compaction)
    got = run_playouts_tracked_compiled(
        bg, make_batch(), cmp_rng, **compaction
    )
    np.testing.assert_array_equal(got.winners, ref.winners)
    np.testing.assert_array_equal(got.scores, ref.scores)
    np.testing.assert_array_equal(got.finish_steps, ref.finish_steps)
    assert_untouched(ref_rng, saved)
    assert_untouched(cmp_rng, saved)
    return ref


def _run_both_state(game_name, state, n, seed):
    bg = make_batch_game(game_name)
    _run_both(game_name, lambda: bg.make_batch([state], n), seed)


@pytest.mark.parametrize("game_name", GAMES)
@pytest.mark.parametrize("plies", [2, 5, 9])
def test_mid_game_states_identical(game_name, plies):
    game = make_game(game_name)
    state = _mid_state(game_name, plies)
    _run_both_state(game_name, state, 128, seed=plies)
    if game.is_terminal(state):
        return
    # Mixed batch: mid-game roots at a non-compacting width too.
    _run_both_state(game_name, state, 17, seed=plies + 100)


@pytest.mark.parametrize("game_name", GAMES)
def test_terminal_state_identical(game_name):
    game = make_game(game_name)
    state = _mid_state(game_name, 200)
    assert game.is_terminal(state)
    _run_both_state(game_name, state, 96, seed=1)


#: (roots, lanes per root): 1, and 63 / 64 / 65 either side of the
#: default ``min_compact_size``, and one wide batch.
FUZZ_SHAPES = [(1, 1), (3, 21), (4, 16), (5, 13), (8, 125)]


@pytest.mark.parametrize("game_name", GAMES)
@pytest.mark.parametrize("roots,lanes", FUZZ_SHAPES)
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_mixed_mid_game_roots_identical(game_name, roots, lanes, seed):
    """Random-walk roots at random plies (opening to terminal), several
    different roots sharing one batch."""
    game = make_game(game_name)
    bg = make_batch_game(game_name)
    draw = np.random.default_rng([seed, roots, lanes])
    states = [
        _mid_state(
            game_name,
            int(draw.integers(0, game.max_game_length)),
            seed=int(draw.integers(2**32)),
        )
        for _ in range(roots)
    ]
    _run_both(game_name, lambda: bg.make_batch(states, lanes), seed)


def _reversi_lanes(lanes):
    """A ReversiBatch factory from ``(own, opp, passed, done)`` rows."""
    own, opp, passed, done = zip(*lanes)

    def make():
        return ReversiBatch(
            own=np.array(own, dtype=U64),
            opp=np.array(opp, dtype=U64),
            to_move=np.ones(len(lanes), dtype=np.int8),
            passed=np.array(passed, dtype=bool),
            done=np.array(done, dtype=bool),
        )

    return make


def test_reversi_passes_and_entry_flags():
    """Lanes whose first ply is a forced pass, whose game is a double
    pass, that enter with ``passed`` already set, and that enter
    ``done`` -- side by side in one batch."""
    corner, next_to_it = square_mask(0, 0), square_mask(0, 1)
    far = square_mask(7, 7)
    # Black holds b1, white the a1 corner: black has no move, white has
    # c1 -- black must pass, white then takes the last black disc.
    assert Reversi().legal_moves(
        ReversiState(black=next_to_it, white=corner, to_move=1)
    ) == (PASS_MOVE,)
    forced_pass = (next_to_it, corner, False, False)
    # Two discs out of each other's reach: pass, pass, over.
    double_pass = (corner, far, False, False)
    entered_passed = (corner, far, True, False)
    opening = Reversi().initial_state()
    opening_passed = (opening.black, opening.white, True, False)
    entered_done = (opening.black, opening.white, False, True)
    lanes = [
        forced_pass, double_pass, entered_passed, opening_passed,
        entered_done,
    ] * 4
    ref = _run_both("reversi", _reversi_lanes(lanes), seed=3)
    steps = ref.finish_steps[:5]
    assert steps[0] == 4  # pass, c1, pass, pass
    assert steps[1] == 2 and steps[2] == 1
    assert steps[3] > 2  # a stale `passed` must not end a live game
    assert steps[4] == 0 and ref.scores[4] == 0


# A drawn TicTacToe board; with these squares emptied no refill makes
# a line before the last one is filled, so a lane plays exactly as many
# plies as it has empty squares.
_TTT_X, _TTT_O = 0b110001101, 0b001110010
_TTT_HOLES = {0: 0, 1: 0b100000000, 2: 0b100000001, 3: 0b100000011}


def _tictactoe_lanes(plies_per_lane):
    """A batch whose lane ``i`` finishes at step ``plies_per_lane[i]``
    (0: terminal at entry)."""
    bg = make_batch_game("tictactoe")
    states = [
        TicTacToeState(
            _TTT_X & ~_TTT_HOLES[k], _TTT_O & ~_TTT_HOLES[k], 1
        )
        for k in plies_per_lane
    ]
    return lambda: bg.make_batch(states, 1)


def _caller_steps(finish, min_compact, thr):
    """How far the lockstep driver steps its full-width copy of the
    caller's generator: the first step k whose live count A_k satisfies
    0 < A_k < thr * n (batches of at least ``min_compact`` lanes), else
    the last step."""
    n, last = len(finish), max(finish)
    if n >= min_compact:
        for k in range(1, last):
            alive = sum(f > k for f in finish)
            if 0 < alive < thr * n:
                return k
    return last


@pytest.mark.parametrize(
    "finish",
    [
        pytest.param([2] * 64, id="all-equal"),
        pytest.param([0] * 64, id="all-terminal-at-entry"),
        pytest.param([1] * 63 + [3], id="one-straggler"),
        pytest.param([3] + [1] * 62, id="straggler-below-min-compact"),
        pytest.param([1, 3] * 32, id="exactly-thr-n-alive"),
        pytest.param([1] * 33 + [3] * 31, id="one-under-thr-n-alive"),
        pytest.param([0] * 40 + [2] * 24, id="most-terminal-at-entry"),
        pytest.param([1, 2, 3, 3] * 16, id="second-step-compacts"),
    ],
)
def test_first_compaction_step(finish):
    """Finish-step vectors built to sit on each edge of the compaction
    rule: the lockstep driver's full-width copy stops where the first
    compaction fires, and neither driver moves the caller's generator
    or a lane for it -- with compaction off the lanes are the same."""
    with full_width_steps(len(finish)) as stepped:
        ref = _run_both(
            "tictactoe", _tictactoe_lanes(finish), seed=9,
            compact_threshold=0.5, min_compact_size=64,
        )
    assert ref.finish_steps.tolist() == finish
    assert stepped == [_caller_steps(finish, min_compact=64, thr=0.5)]
    uncompacted = _run_both(
        "tictactoe", _tictactoe_lanes(finish), seed=9, compact_threshold=0.0
    )
    np.testing.assert_array_equal(uncompacted.winners, ref.winners)
    np.testing.assert_array_equal(uncompacted.finish_steps, finish)


@pytest.mark.parametrize("game_name", GAMES)
def test_repeated_calls_share_rng_stream(game_name):
    """Consecutive calls on one generator replay one stream: neither
    driver moves it, so every call plays the first call's lanes."""
    bg = make_batch_game(game_name)
    state = make_game(game_name).initial_state()
    ref_rng = BatchXorShift128Plus(256, 5)
    cmp_rng = BatchXorShift128Plus(256, 5)
    first = run_playouts_tracked(bg, bg.make_batch([state], 256), ref_rng)
    for _ in range(3):
        ref = run_playouts_tracked(
            bg, bg.make_batch([state], 256), ref_rng
        )
        got = run_playouts_tracked_compiled(
            bg, bg.make_batch([state], 256), cmp_rng
        )
        np.testing.assert_array_equal(ref.winners, first.winners)
        np.testing.assert_array_equal(got.winners, first.winners)
        np.testing.assert_array_equal(got.finish_steps, first.finish_steps)
        assert cmp_rng.state_digest() == ref_rng.state_digest()


def test_unsupported_game_falls_back(monkeypatch):
    """Breakthrough has no C kernel: ``@compiled`` must degrade to
    the NumPy driver -- bit-identically -- and say so, once."""
    import warnings

    from repro.compiled import runner

    monkeypatch.setattr(runner, "_WARNED_GAMES", set())
    assert "breakthrough" not in COMPILED_GAMES
    bg = make_batch_game("breakthrough")
    state = make_game("breakthrough").initial_state()
    ref_rng = BatchXorShift128Plus(32, 3)
    cmp_rng = BatchXorShift128Plus(32, 3)
    ref = run_playouts_tracked(bg, bg.make_batch([state], 32), ref_rng)
    with pytest.warns(RuntimeWarning, match="breakthrough"):
        got = run_playouts_tracked_compiled(
            bg, bg.make_batch([state], 32), cmp_rng
        )
    np.testing.assert_array_equal(got.winners, ref.winners)
    np.testing.assert_array_equal(got.scores, ref.scores)
    np.testing.assert_array_equal(
        got.finish_steps, ref.finish_steps
    )
    assert cmp_rng.state_digest() == ref_rng.state_digest()
    # Warn once per game, not once per launch.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        run_playouts_tracked_compiled(
            bg, bg.make_batch([state], 32), cmp_rng
        )


def test_disabled_env_reports_unavailable(compiled_env):
    compiled_env("never")
    assert not compiled_available()
    assert unavailable_reason() is not None


def test_availability_is_consistent():
    """Whichever way the toolchain probe went, the module agrees with
    itself: available means no unavailability reason and vice versa."""
    if compiled_available():
        assert unavailable_reason() is None
    else:
        assert unavailable_reason() is not None
