"""Differential wall for the block-shaped launch entry
(``repro_<game>_block`` behind :func:`repro.compiled.block_compiled`).

The entry takes ``k`` positions, a lane count per position and the
*caller's* generator, and does in C what the NumPy composition does in
two calls -- ``make_batch`` (repeat each position over its lanes,
perspective swap, terminal-at-entry) and ``run_playouts_tracked`` (the
move loop, and where the first compaction leaves the caller's
generator).  Two references hold it, lane for lane: that composition
(:func:`repro.core.executors.launch_block_numpy`), and the same batch
through the batch-object export (``run_playouts_tracked_compiled``).
Winners, scores, finish steps *and the generator's state afterwards*
must agree for every game, shape and position mix.  Without a C
toolchain the entry falls back to the NumPy body and the comparisons
hold trivially; the tests that need the kernel itself skip.
"""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compiled import (
    COMPILED_GAMES,
    block_compiled,
    compiled_available,
    launch_compiled,
    load_library,
    run_playouts_tracked_compiled,
    runner,
)
from repro.compiled.build import lazy_export
from repro.core import executors
from repro.core.backend import make_forest
from repro.core.checkpoint import snapshot_bytes, snapshot_from_bytes
from repro.core.executors import block_launcher, launch_block_numpy
from repro.core.spec import make_engine
from repro.games import make_batch_game, make_game
from repro.games.batch import Positions, run_playouts_tracked
from repro.games.tictactoe import TicTacToeState
from repro.gpu import TESLA_C2050, LaunchConfig, VirtualGpu
from repro.rng import BatchXorShift128Plus, XorShift64Star
from repro.util.clock import Clock
from tests.compiled.test_launch import _special_roots, root_pool
from tests.core.test_differential import _assert_identical
from tests.compiled.test_runner import (
    _TTT_HOLES,
    _TTT_O,
    _TTT_X,
    _caller_steps,
)

pytestmark = pytest.mark.compiled

GAMES = sorted(COMPILED_GAMES)
#: Positions per launch: leaf parallelism's one, a few, and either side
#: of nothing in particular up to ``search_tree``'s 256.
POSITIONS = [1, 3, 63, 256]
#: Lanes per position: ``search_tree``'s 1, 2 (the lane index is not the
#: position index) and ``search_block``'s 64.
LANES = [1, 2, 64]

needs_kernel = pytest.mark.skipif(
    not compiled_available(), reason="no compiled kernel library on this host"
)


def references(bg, states, lanes, seed):
    """``make_batch`` through both drivers of the batch object; each
    returns its outcomes and the generator it left behind."""
    out = []
    for driver in (run_playouts_tracked, run_playouts_tracked_compiled):
        rng = BatchXorShift128Plus(len(states) * lanes, seed)
        out.append((driver(bg, bg.make_batch(list(states), lanes), rng), rng))
    return out


def assert_same(got, got_rng, want, want_rng):
    for name in ("winners", "scores", "finish_steps"):
        got_column, want_column = getattr(got, name), getattr(want, name)
        assert got_column.dtype == want_column.dtype, name
        np.testing.assert_array_equal(got_column, want_column, err_msg=name)
    assert_same_generator(got_rng, want_rng)


def assert_same_generator(got_rng, want_rng):
    got_n, *got_state = got_rng.getstate()
    want_n, *want_state = want_rng.getstate()
    assert got_n == want_n
    for got_s, want_s in zip(got_state, want_state):
        np.testing.assert_array_equal(got_s, want_s)


def check(game_name, states, lanes, seed):
    """The entry over ``states`` -- handed over as states and as columns
    -- against both references; returns the NumPy one."""
    bg = make_batch_game(game_name)
    game = make_game(game_name)
    (want, want_rng), (batch_object, batch_object_rng) = references(
        bg, states, lanes, seed
    )
    assert_same(batch_object, batch_object_rng, want, want_rng)
    columns = Positions(states).columns()
    for positions in (
        Positions(states),
        Positions.from_columns(game, *columns),
    ):
        rng = BatchXorShift128Plus(len(states) * lanes, seed)
        got = block_compiled(bg, positions, lanes, rng)
        assert_same(got, rng, want, want_rng)
    return want


# -- (a) the entry against both references -----------------------------------


@pytest.mark.parametrize("game_name", GAMES)
@pytest.mark.parametrize("k", POSITIONS)
@pytest.mark.parametrize("lanes", LANES)
def test_block_matches_both_references(game_name, k, lanes):
    pool = root_pool(game_name)
    for seed in (0, 1, 2):
        draw = np.random.default_rng([seed, k, lanes])
        states = [pool[i] for i in draw.integers(len(pool), size=k)]
        check(game_name, states, lanes, int(draw.integers(2**63)))


@pytest.mark.parametrize("game_name", GAMES)
@pytest.mark.parametrize("lanes", [1, 3])
def test_every_pool_root_alone(game_name, lanes):
    """One position per launch, so no root hides behind another's
    draws; over-at-entry roots finish at step 0 with the position's own
    outcome in every lane."""
    game = make_game(game_name)
    over_at_entry = {
        state
        for label, state in _special_roots(game_name).items()
        if label != "forced-pass"
    }
    for i, state in enumerate(root_pool(game_name)):
        want = check(game_name, [state], lanes, 100 + i)
        if state in over_at_entry:
            assert want.finish_steps.tolist() == [0] * lanes
            assert want.winners.tolist() == [game.winner(state)] * lanes
            assert want.scores.tolist() == [game.score(state)] * lanes


def test_reversi_forced_pass_at_entry_plays_on():
    state = _special_roots("reversi")["forced-pass"]
    want = check("reversi", [state] * 2, 2, 3)
    assert want.finish_steps.tolist() == [4] * 4  # pass, c1, pass, pass


@settings(max_examples=40, deadline=None)
@given(
    game_name=st.sampled_from(GAMES),
    walks=st.lists(
        st.lists(st.integers(0, 2**16), max_size=70), min_size=1, max_size=6
    ),
    lanes=st.sampled_from([1, 2, 5]),
    seed=st.integers(0, 2**63 - 1),
)
def test_random_walk_positions(game_name, walks, lanes, seed):
    """Mid-game positions reached by arbitrary legal move sequences
    (a walk stops early at a terminal position, which then enters the
    launch as over at entry)."""
    game = make_game(game_name)
    states = []
    for picks in walks:
        state = game.initial_state()
        for pick in picks:
            if game.is_terminal(state):
                break
            moves = game.legal_moves(state)
            state = game.apply(state, moves[pick % len(moves)])
        states.append(state)
    check(game_name, states, lanes, seed)


# -- (b) the caller's generator ----------------------------------------------


@pytest.mark.parametrize("game_name", GAMES)
@pytest.mark.parametrize("k,lanes", [(5, 1), (3, 21), (8, 16), (2, 64)])
def test_two_launches_share_one_generator(game_name, k, lanes):
    """``VirtualGpu`` keeps one generator per width across launches: the
    second launch starts where the first left it, on either body."""
    bg = make_batch_game(game_name)
    pool = root_pool(game_name)
    rounds = [
        [pool[(3 * r + 5 * i) % len(pool)] for i in range(k)] for r in (0, 1)
    ]
    want_rng = BatchXorShift128Plus(k * lanes, 17)
    got_rng = BatchXorShift128Plus(k * lanes, 17)
    for states in rounds:
        want = launch_block_numpy(bg, states, lanes, want_rng)
        got = block_compiled(bg, Positions(states), lanes, got_rng)
        assert_same(got, got_rng, want, want_rng)


def _finishing_at(plies):
    """A TicTacToe position whose every playout lasts ``plies`` plies
    (0: over at entry) -- see ``tests/compiled/test_runner.py``."""
    return TicTacToeState(
        _TTT_X & ~_TTT_HOLES[plies], _TTT_O & ~_TTT_HOLES[plies], 1
    )


@pytest.mark.parametrize(
    "finish,lanes",
    [
        pytest.param([2] * 64, 1, id="all-equal"),
        pytest.param([0] * 64, 1, id="all-over-at-entry"),
        pytest.param([1] * 63 + [3], 1, id="one-straggler"),
        pytest.param([3] + [1] * 62, 1, id="straggler-below-min-compact"),
        pytest.param([1, 3] * 32, 1, id="exactly-thr-n-alive"),
        pytest.param([1] * 33 + [3] * 31, 1, id="one-under-thr-n-alive"),
        pytest.param([0] * 40 + [2] * 24, 1, id="most-over-at-entry"),
        pytest.param([1, 2, 3, 3] * 16, 1, id="second-step-compacts"),
        pytest.param([1] * 17 + [3] * 15, 2, id="two-lanes-under-thr"),
        pytest.param([3] + [1] * 20, 3, id="three-lanes-63-wide"),
        pytest.param([3] + [1] * 12, 5, id="five-lanes-65-wide"),
    ],
)
def test_generator_stops_at_the_first_compaction(finish, lanes):
    """Finish-step vectors on each edge of the compaction rule (64
    lanes, half of them alive): the caller's generator ends advanced by
    exactly the lockstep driver's step count."""
    states = [_finishing_at(plies) for plies in finish]
    want = check("tictactoe", states, lanes, 9)
    per_lane = np.repeat(finish, lanes).tolist()
    assert want.finish_steps.tolist() == per_lane
    n = len(per_lane)
    rng = BatchXorShift128Plus(n, 9)
    block_compiled(
        make_batch_game("tictactoe"), Positions(states), lanes, rng
    )
    advanced = BatchXorShift128Plus(n, 9)
    for _ in range(_caller_steps(per_lane, min_compact=64, thr=0.5)):
        advanced.next_u64()
    assert_same_generator(rng, advanced)


# -- (c) what the column runner refuses --------------------------------------


def _never(*args):
    raise AssertionError("a refused launch reached the kernel")


def test_block_columns_refuses_before_the_kernel_runs():
    bg = make_batch_game("tictactoe")
    planes = np.zeros((2, 8), dtype=np.uint64)
    to_move = np.ones(8, dtype=np.int8)
    rng = BatchXorShift128Plus(16, 4)
    before = rng.getstate()

    def refused(error, match, plane1, plane2, side, lanes=2, rng=rng):
        with pytest.raises(error, match=match):
            runner.block_columns(_never, bg, plane1, plane2, side, lanes, rng)
        assert_same_generator(rng, BatchXorShift128Plus.from_state(before))

    column = "launch column"
    refused(TypeError, column, planes[0].astype(np.int64), planes[1], to_move)
    refused(TypeError, column, planes[0], planes[1], to_move.astype(np.int64))
    refused(TypeError, column, planes[0], planes[1], to_move.astype(bool))
    # A strided view, and columns of different lengths.
    wide = np.zeros((2, 16), dtype=np.uint64)
    refused(TypeError, column, wide[0, ::2], planes[1], to_move)
    refused(TypeError, column, planes[0, :4], planes[1], to_move)
    refused(TypeError, column, planes[0], planes[1], to_move[:4])
    refused(TypeError, column, planes, planes[1], to_move)
    for lanes in (0, -2):
        refused(
            ValueError, "lanes_per_state must be positive",
            planes[0], planes[1], to_move, lanes=lanes,
        )
    # The generator is as wide as the launch, not one lane short or long
    # (the kernel would write past it), nor merely as wide as a block.
    for lanes in (1, 3):
        refused(
            ValueError, f"rng has 16 lanes for a 8 x {lanes}-lane",
            planes[0], planes[1], to_move, lanes=lanes,
        )
    refused(
        ValueError, "rng has 16 lanes for a 7 x 2-lane",
        planes[0, :7], planes[1, :7], to_move[:7],
    )
    refused(
        ValueError, "do not fit int64",
        planes[0], planes[1], to_move, lanes=2**60,
    )
    refused(
        ValueError, "rng has 16 lanes for a 0 x 2-lane",
        planes[0, :0], planes[1, :0], to_move[:0],
    )


@needs_kernel
def test_block_columns_reads_read_only_columns():
    bg = make_batch_game("connect4")
    kernel = lazy_export(load_library(), "block", "connect4")
    columns = Positions(root_pool("connect4")[:6]).columns()
    want_rng, got_rng = (BatchXorShift128Plus(12, 8) for _ in range(2))
    want = runner.block_columns(kernel, bg, *columns, 2, want_rng)
    for column in columns:
        column.setflags(write=False)
    got = runner.block_columns(kernel, bg, *columns, 2, got_rng)
    assert_same(got, got_rng, want, want_rng)


BODIES = [
    pytest.param(block_launcher(playout), id=playout)
    for playout in executors.PLAYOUT_EXECUTORS
]


@pytest.mark.parametrize("launch", BODIES)
@pytest.mark.parametrize("game_name", GAMES)
def test_game_longer_than_max_game_length_raises(launch, game_name):
    bg = make_batch_game(game_name)
    bg.max_game_length = 3  # shadows the class attribute on this instance
    states = [make_game(game_name).initial_state()] * 2
    with pytest.raises(
        RuntimeError, match="exceeded max_game_length=3; engine bug"
    ):
        launch(bg, Positions(states), 2, BatchXorShift128Plus(4, 1))


@pytest.mark.parametrize("launch", BODIES)
def test_lanes_per_state_must_be_positive(launch):
    bg = make_batch_game("reversi")
    positions = Positions([make_game("reversi").initial_state()])
    for lanes in (0, -1):
        with pytest.raises(ValueError, match="lanes_per_state must be pos"):
            launch(bg, positions, lanes, BatchXorShift128Plus(1, 1))


# -- (d) fallbacks -----------------------------------------------------------


@needs_kernel
def test_compiled_body_takes_the_kernel(monkeypatch):
    """With the NumPy driver unusable the launch still completes: the
    block entry really ran, no silent fallback."""
    bg = make_batch_game("reversi")
    states = root_pool("reversi")[:8]
    want_rng = BatchXorShift128Plus(16, 2)
    want = launch_block_numpy(bg, states, 2, want_rng)

    def unusable(*args, **kwargs):
        raise AssertionError("the NumPy driver ran under playout='compiled'")

    monkeypatch.setattr(executors, "run_playouts_tracked", unusable)
    monkeypatch.setattr(runner, "run_playouts_tracked", unusable)
    monkeypatch.setattr(bg, "make_batch", unusable)
    rng = BatchXorShift128Plus(16, 2)
    got = block_launcher("compiled")(bg, Positions(states), 2, rng)
    assert_same(got, rng, want, want_rng)


def test_falls_back_without_a_library(monkeypatch, compiled_env):
    bg = make_batch_game("reversi")
    states = root_pool("reversi")[:8]
    want_rng = BatchXorShift128Plus(16, 2)
    want = block_compiled(bg, Positions(states), 2, want_rng)
    compiled_env("0")

    def unusable(*args):
        raise AssertionError("REPRO_COMPILED=0 reached the kernel lookup")

    monkeypatch.setattr(runner, "lazy_export", unusable)
    rng = BatchXorShift128Plus(16, 2)
    got = block_compiled(bg, Positions(states), 2, rng)
    assert_same(got, rng, want, want_rng)


def test_breakthrough_falls_back_and_warns_once(monkeypatch):
    monkeypatch.setattr(runner, "_WARNED_GAMES", set())
    game = make_game("breakthrough")
    bg = make_batch_game("breakthrough")
    states = [game.initial_state()] * 3
    want_rng = BatchXorShift128Plus(12, 4)
    want = launch_block_numpy(bg, states, 4, want_rng)
    rng = BatchXorShift128Plus(12, 4)
    with pytest.warns(RuntimeWarning, match="breakthrough") as caught:
        got = block_compiled(bg, Positions(states), 4, rng)
    assert len(caught) == 1
    assert_same(got, rng, want, want_rng)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        # From an arena's columns too: the fallback builds the states.
        arena = make_forest(
            "arena", game, game.initial_state(), [XorShift64Star(1)]
        )
        leaves, _ = arena.select_expand_all()
        block_compiled(
            bg, arena.positions_of(leaves), 4, BatchXorShift128Plus(4, 4)
        )


# -- (e) the positions of a launch -------------------------------------------


@pytest.mark.parametrize("game_name", GAMES + ["breakthrough"])
def test_positions_hold_either_form(game_name):
    game = make_game(game_name)
    if game_name in COMPILED_GAMES:
        states = root_pool(game_name)
    else:
        first = game.initial_state()
        states = [first, game.apply(first, game.legal_moves(first)[0])]
    from_states = Positions(states)
    plane1, plane2, to_move = from_states.columns()
    assert (plane1.dtype, plane2.dtype, to_move.dtype) == (
        np.uint64, np.uint64, np.int8
    )
    assert [tuple(game.zobrist_planes(s)) for s in states] == list(
        zip(plane1.tolist(), plane2.tolist())
    )
    assert [game.to_move(s) for s in states] == to_move.tolist()
    assert from_states.columns()[0] is plane1  # staged once
    from_columns = Positions.from_columns(game, plane1, plane2, to_move)
    assert len(from_columns) == len(from_states) == len(states)
    assert list(from_columns) == list(from_states) == list(states)
    assert {type(s) for s in from_columns} == {type(states[0])}
    assert next(iter(from_columns)) is next(iter(from_columns))  # built once
    assert from_columns.columns()[2] is to_move
    empty = Positions([])
    assert len(empty) == 0 and list(empty) == []
    assert [c.shape for c in empty.columns()] == [(0,)] * 3


@pytest.mark.parametrize("disabled", [False, True], ids=["kernel", "numpy"])
@pytest.mark.parametrize("game_name", GAMES)
def test_launch_entry_takes_positions_too(game_name, disabled, compiled_env):
    """The fresh-family entry reads a ``Positions``' own columns where
    it would stage a sequence of states: same answers, on the kernel
    and on the fallback."""
    if disabled:
        compiled_env("0")
    bg = make_batch_game(game_name)
    states = root_pool(game_name)
    want = launch_compiled(bg, states, 31, 5)
    columns = Positions(states).columns()
    for positions in (
        Positions(states),
        Positions.from_columns(make_game(game_name), *columns),
    ):
        got = launch_compiled(bg, positions, 31, 5)
        for got_column, want_column in zip(got, want):
            np.testing.assert_array_equal(got_column, want_column)


# -- (f) the virtual GPU through the seam ------------------------------------


def _twin_gpus(playout, game_name="reversi"):
    return [
        VirtualGpu(TESLA_C2050, Clock(), game_name, 5, playout=playout)
        for _ in range(2)
    ]


@pytest.mark.parametrize("playout", executors.PLAYOUT_EXECUTORS)
@pytest.mark.parametrize("blocks,tpb", [(6, 1), (6, 32), (1, 64)])
def test_gpu_takes_positions_or_states(playout, blocks, tpb):
    """A ``Positions`` of columns and the list of states it stands for
    are one launch: same outcomes, same timing, same generator after."""
    game = make_game("reversi")
    config = LaunchConfig(blocks, tpb)
    by_states, by_columns = _twin_gpus(playout)
    pool = root_pool("reversi")
    for r in range(3):
        # One position per block, or one for the grid (leaf parallel).
        states = [pool[(r + 3 * i) % len(pool)] for i in range(min(blocks, 6))]
        columns = Positions(states).columns()
        want = by_states.run_playouts(states, config)
        got = by_columns.run_playouts(
            Positions.from_columns(game, *columns), config
        )
        np.testing.assert_array_equal(got.winners, want.winners)
        np.testing.assert_array_equal(got.scores, want.scores)
        np.testing.assert_array_equal(got.block_steps, want.block_steps)
        assert got.timing == want.timing
    assert by_columns.clock.now == by_states.clock.now
    assert repr(by_columns.getstate()) == repr(by_states.getstate())


@pytest.mark.parametrize("playout", executors.PLAYOUT_EXECUTORS)
def test_failed_launch_frees_device_memory(playout):
    """A launch that is refused or fails leaves nothing allocated on the
    device and counts no kernel; a refused one also leaves the device's
    generator where it stood."""
    game = make_game("tictactoe")
    gpu, _ = _twin_gpus(playout, "tictactoe")
    config = LaunchConfig(4, 2)
    states = [game.initial_state()] * 4
    gpu.run_playouts(states, config)
    before = repr(gpu.getstate())
    with pytest.raises(ValueError, match="3 root states for 4 blocks"):
        gpu.run_playouts(Positions(states[:3]), config)
    if playout == "compiled" and compiled_available():
        signed = Positions.from_columns(
            game,
            np.zeros(4, dtype=np.int64),
            np.zeros(4, dtype=np.uint64),
            np.ones(4, dtype=np.int8),
        )
        with pytest.raises(TypeError, match="launch column int64"):
            gpu.run_playouts(signed, config)
    assert repr(gpu.getstate()) == before
    gpu.batch_game.max_game_length = 3
    with pytest.raises(RuntimeError, match="exceeded max_game_length=3"):
        gpu.run_playouts(states, config)
    assert gpu.stats.kernels_launched == 1


# -- (g) engines through the new path ----------------------------------------

#: Every engine kind that launches through ``VirtualGpu``.
GPU_SPECS = ["leaf:1x32", "block:2x8", "block:16x1", "hybrid:2x32",
             "multigpu:2x2x16"]


#: Virtual seconds that give every spec below several iterations.
BUDGET_S = {"tictactoe": 2e-3, "reversi": 2e-2}


def _search(spec, game_name, **kwargs):
    game = make_game(game_name)
    engine = make_engine(spec, game, 2011, **kwargs)
    return engine.search(game.initial_state(), BUDGET_S[game_name])


@pytest.mark.parametrize("game_name", ["tictactoe", "reversi"])
@pytest.mark.parametrize("spec", GPU_SPECS)
def test_engines_on_the_product_stack_match_the_reference(spec, game_name):
    """``@arena@compiled`` -- leaf columns straight into the block
    entry -- against pointer trees and the NumPy driver, seed for
    seed."""
    product = _search(f"{spec}@arena@compiled", game_name)
    assert product.iterations >= 2
    _assert_identical(product, _search(f"{spec}@node", game_name))


@needs_kernel
@pytest.mark.parametrize("spec", ["leaf:1x32", "block:16x1", "hybrid:2x32"])
def test_arena_engines_build_no_state_per_leaf(spec, monkeypatch):
    """On the product stack a GPU iteration hands the kernel columns:
    no ``make_batch``, and no state tuple per leaf (``hybrid`` keeps the
    scalar ``state_of`` of its CPU-overlap playouts)."""
    want = _search(f"{spec}@arena@compiled", "reversi", max_iterations=12)
    game_cls = type(make_game("reversi"))
    built = []
    original = game_cls.state_from_planes

    def counting(self, *planes):
        built.append(planes)
        return original(self, *planes)

    def unusable(*args, **kwargs):
        raise AssertionError("make_batch ran on the product stack")

    monkeypatch.setattr(game_cls, "state_from_planes", counting)
    monkeypatch.setattr(
        type(make_batch_game("reversi")), "make_batch", unusable
    )
    got = _search(f"{spec}@arena@compiled", "reversi", max_iterations=12)
    _assert_identical(got, want)
    if spec.startswith("hybrid"):
        assert len(built) == got.extras["cpu.iterations"]
    else:
        assert built == []


@pytest.mark.faults
def test_crash_restore_resume_on_the_product_stack():
    """``block:16x1@arena@compiled`` interrupted mid-search, its
    snapshot round-tripped through bytes and resumed on a fresh engine,
    finishes bit-identical -- the device generator persisted where the
    block entry left it."""
    spec = "block:16x1@arena@compiled"
    game = make_game("reversi")
    budget_s = BUDGET_S["reversi"]
    base = make_engine(spec, game, 2011).search(game.initial_state(), budget_s)
    assert base.iterations > 6

    class Boom(RuntimeError):
        pass

    captured = {}

    def hook(engine, iterations):
        if iterations >= 4 and not captured:
            captured["snap"] = engine.snapshot()
            raise Boom()

    crashed = make_engine(spec, game, 2011)
    crashed.iteration_hook = hook
    with pytest.raises(Boom):
        crashed.search(game.initial_state(), budget_s)
    fresh = make_engine(spec, game, 2011)
    fresh.restore(snapshot_from_bytes(snapshot_bytes(captured["snap"])))
    _assert_identical(fresh.resume(), base)
    # The same snapshot resumes on the reference stack to the same end.
    reference = make_engine("block:16x1@arena", game, 2011)
    reference.restore(snapshot_from_bytes(snapshot_bytes(captured["snap"])))
    _assert_identical(reference.resume(), base)
