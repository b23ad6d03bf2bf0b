"""Differential wall for the select loop (``root_loop`` in
``playout.c``, behind ``TreeArena.select_loop`` and the many-arena
``select_loops``).

On a compiled arena a ``root:N`` or ``sequential`` session is a
``LoopRound``: one kernel call delivers the last round's playout
answers -- each winner credited along its path, each tree's clock
charged ``iteration_time(depth, plies)`` from the cost model's own
table -- then runs sub-rounds over the trees with budget left, each
terminal leaf credited and charged in C, until a sub-round selects a
leaf that needs a playout; those rows wait in the loop's columns.
``RootRound`` and ``SequentialRound``, the Python bodies, are the
reference: on a pointer forest, and on an arena on its Python bodies,
each must see the same requests, leave the same node ids, visits and
wins, and charge the same clocks bit for bit -- from near-terminal
positions of all three games (solved trees), at budget and
iteration-cap edges, from a capacity that makes the arena grow
mid-loop (between a delivery and the select after it too), with
corrupted winners and with ply counts the table does not hold (which
the kernel refuses and Python charges), with a sequential engine whose
clock does not start at zero, and with an iteration hook or an
integrity guard, which see every delivery and every sub-round (one per
kernel call).  Without a library the "kernel" session runs the Python
bodies too, and the wall holds the arena's Python bodies to the pointer
forest.
"""

from __future__ import annotations

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compiled import COMPILED_GAMES, RootLoop, compiled_available
from repro.core import make_engine
from repro.core.arena import TreeArena, compiled_arena, launch_positions
from repro.core.rounds import LoopRound, run_rounds
from repro.faults import FaultInjector, FaultPlan
from repro.games import make_game
from repro.games.batch import Positions
from tests.core.test_arena import columns

pytestmark = pytest.mark.compiled

GAMES = sorted(COMPILED_GAMES)
#: The three stores a session runs on: the kernel's loop (an arena on
#: the compiled bodies where there are some), an arena on the Python
#: bodies, a pointer forest.
STORES = ("kernel", "python", "node")
#: Winners a corrupted readback can carry: none of them is 1, -1 or 0,
#: so each is a visit and no win.
BAD_WINNERS = (float("nan"), 7, -3, 0.5, float(2**40))
#: Ply counts outside every table: negative, past the longest game.
BAD_PLIES = (-1, -(2**31), 2**31 + 5)


def near_end(game, plies: int, seed: int):
    """The last non-terminal position of a random walk of ``plies``."""
    rng = random.Random(seed)
    state = game.initial_state()
    for _ in range(plies):
        nxt = game.apply(state, rng.choice(game.legal_moves(state)))
        if game.is_terminal(nxt):
            break
        state = nxt
    return state


def position(game, state) -> tuple:
    p1, p2 = game.zobrist_planes(state)
    return p1, p2, game.to_move(state)


def answer(game, state, step: int, corrupt: bool = False):
    """A made-up ``(winner, plies)`` playout answer, a function of the
    position and the round alone, so every store is answered alike;
    ``corrupt`` mixes in winners and ply counts no clean playout
    returns."""
    p1, p2, to_move = position(game, state)
    mix = (p1 * 0x9E3779B1 + p2 * 0x85EBCA77 + step * 31 + to_move) % 1009
    winner, plies = mix % 3 - 1, mix % 11
    if corrupt and mix % 4 == 0:
        winner = BAD_WINNERS[mix % len(BAD_WINNERS)]
    if corrupt and mix % 5 == 1:
        plies = (*BAD_PLIES, game.max_game_length + 1)[mix % 4]
    return winner, plies


def session(
    store, game, root, kind, n_trees, seed, budget_s, cap, tiny, guard,
    start=0.0,
):
    """An engine of ``kind`` (``"root"`` with ``n_trees`` trees, or
    ``"sequential"``) with a live session on ``store``, its clock at
    ``start`` when the session begins, answered by the caller (no
    executor)."""
    guarded = {}
    if guard is not None:
        guarded["injector"] = FaultInjector(FaultPlan.parse(guard))
    engine = make_engine(
        "sequential" if kind == "sequential" else f"root:{n_trees}",
        game,
        seed,
        backend="node" if store == "node" else "arena",
        max_iterations=cap,
        **guarded,
    )
    if start:
        engine.clock.advance(start)
    engine._begin_session(root, budget_s)
    forest = store_of(engine)
    if store != "node":
        if tiny:
            # Capacity == allocated: the first sub-round grows the arena.
            forest.compact()
        if store == "python":
            forest._cols = None
    return engine


def store_of(engine):
    live = engine._live
    return live["forest"] if "forest" in live else live["tree"]


def clocks(engine) -> tuple:
    """The session's counters, clocks bit for bit."""
    live = engine._live
    if "core_time" in live:
        times = [t.hex() for t in live["core_time"]]
        iters = list(live["per_tree_iters"])
    else:
        times, iters = engine.clock.now.hex(), None
    return times, iters, live["iterations"], live["simulations"]


def clocks_of(rnd) -> list:
    """A root session's core clocks after its end, bit for bit."""
    return [t.hex() for t in rnd.core_time]


def pending(rnd, arena: bool) -> tuple:
    """The selected round's trees, depths and leaves (node ids on an
    arena): the loop's columns, or the Python round's lists."""
    loop = rnd.loop
    if loop is not None:
        m = loop.rows
        return (
            loop.trees[:m].tolist(),
            loop.row_depths[:m].tolist(),
            loop.leaves[:m].tolist(),
        )
    if hasattr(rnd, "active"):
        trees, depths, leaves = rnd.active, rnd.depths, rnd.refs
    else:
        trees, depths, leaves = [0], [rnd.leaf[1]], [rnd.leaf[0]]
    return list(trees), list(depths), list(leaves) if arena else None


def drive(engine, hook: bool, corrupt: bool = False):
    """Run ``engine``'s session to its end; everything each round and
    each hook saw, the store's columns (arenas) and the result -- and,
    per kernel call, whether it delivered, the sub-rounds it ran, the
    rows it handed back and whether the arena grew in it."""
    game = engine.game
    log, calls = [], []
    if hook:
        engine.iteration_hook = lambda eng, it: log.append(
            ("hook", it, clocks(eng))
        )
    rnd = engine.open_round()
    store = rnd.store
    arena = isinstance(store, TreeArena)

    def spy(loop):
        delivered, sub_rounds = loop.answers is not None, loop.sub_rounds
        capacity = store.capacity
        rc = TreeArena.select_loop(store, loop)
        calls.append(
            (
                delivered,
                loop.sub_rounds - sub_rounds,
                loop.rows,
                store.capacity > capacity,
            )
        )
        return rc

    if arena:
        store.select_loop = spy
    try:
        step = 0
        while rnd.select():
            log.append(
                (
                    "round",
                    [position(game, s) for s in rnd.requests],
                    *pending(rnd, arena),
                    clocks(engine),
                )
            )
            rnd.deliver(
                [answer(game, s, step, corrupt) for s in rnd.requests]
            )
            step += 1
        log.append(("end", clocks(engine)))
        tree = columns(store) if arena else None
    finally:
        store.__dict__.pop("select_loop", None)
    result = rnd.finish()
    return log, tree, result, calls, engine.clock.now.hex()


def outcome(result) -> tuple:
    return (
        result.move,
        result.stats,
        result.iterations,
        result.simulations,
        result.elapsed_s.hex(),
        result.tree_nodes,
        result.max_depth,
        result.extras,
    )


def without_refs(log) -> list:
    return [
        entry[:4] + entry[5:] if entry[0] == "round" else entry
        for entry in log
    ]


def check(
    game, root, n_trees, seed, budget_s, cap, tiny, hook=False, guard=None,
    kind="root", corrupt=False, start=0.0,
):
    """One session from ``root`` on every store, held to each other;
    the kernel's run."""
    runs = {}
    for store in STORES:
        engine = session(
            store, game, root, kind, n_trees, seed, budget_s, cap, tiny,
            guard, start,
        )
        looped = store == "kernel" and compiled_available()
        assert compiled_arena(store_of(engine)) == looped
        assert isinstance(engine.open_round(), LoopRound) == looped
        runs[store] = drive(engine, hook, corrupt)
    kernel, python, node = (runs[store] for store in STORES)
    # Node ids, visits, wins, clocks bit for bit: arena for arena.
    assert kernel[0] == python[0]
    assert kernel[1] == python[1]
    assert outcome(kernel[2]) == outcome(python[2])
    assert kernel[4] == python[4] == node[4]
    # The same search on pointer trees.
    assert without_refs(kernel[0]) == without_refs(node[0])
    assert outcome(kernel[2]) == outcome(node[2])
    calls = kernel[3]
    # Every kernel call but the last delivers or runs a sub-round; only
    # the last can find nothing to do -- no tree with budget left.
    assert all(delivered or subs for delivered, subs, *_ in calls[:-1])
    if hook or guard is not None:
        # A guard or hook sees every delivery and every sub-round: one
        # of them per kernel call.
        assert all(
            subs == (0 if delivered else 1)
            for delivered, subs, *_ in calls[:-1]
        )
    return kernel


@pytest.mark.skipif(not compiled_available(), reason="no compiled kernels")
def test_a_loop_for_another_tree_count_is_refused():
    """The loop's columns must hold one row per tree of the arena:
    anything else is refused before the arena is touched."""
    game = make_game("tictactoe")
    engine = session(
        "kernel", game, game.initial_state(), "root", 3, 1, 1.0, None,
        False, None,
    )
    arena = engine._live["forest"]
    before = columns(arena)
    table = np.zeros((game.max_game_length + 2, game.max_game_length + 1))
    for n_trees in (2, 4):
        loop = RootLoop.of(game, n_trees, 0.0, 1.0, float("inf"), table)
        with pytest.raises(ValueError, match="outside the arena"):
            arena.select_loop(loop)
    assert columns(arena) == before


@pytest.mark.skipif(not compiled_available(), reason="no compiled kernels")
def test_answers_outside_the_arena_are_refused():
    """A pending row whose leaf or depth lies outside the arena or the
    table is refused before anything is credited."""
    game = make_game("connect4")
    engine = session(
        "kernel", game, game.initial_state(), "root", 2, 3, 1.0, None,
        False, None,
    )
    rnd = engine.open_round()
    assert rnd.select()
    loop, arena = rnd.loop, rnd.store
    before = columns(arena), loop.clock.tolist()
    winners = np.zeros(loop.rows)
    plies = np.zeros(loop.rows, dtype=np.int64)
    for column, bad in (
        (loop.leaves, arena.allocated),
        (loop.leaves, -1),
        (loop.row_depths, loop.depths),
        (loop.trees, 2),
    ):
        kept = column[0]
        column[0] = bad
        loop.answer(winners, plies)
        with pytest.raises(ValueError, match="outside the arena"):
            arena.select_loop(loop)
        column[0] = kept
        assert (columns(arena), loop.clock.tolist()) == before
    rows = loop.rows
    loop.rows = loop.n_trees + 1
    loop.answer(np.zeros(loop.rows), np.zeros(loop.rows, dtype=np.int64))
    with pytest.raises(ValueError, match="outside the arena"):
        arena.select_loop(loop)
    loop.rows = rows
    assert (columns(arena), loop.clock.tolist()) == before
    with pytest.raises(TypeError, match="float64 winners"):
        loop.answer(winners.astype(np.int8), plies)


@pytest.mark.skipif(not compiled_available(), reason="no compiled kernels")
def test_launch_positions_lay_out_loop_rows_and_states_in_lane_order():
    """A launch's columns: each loop's pending rows gathered into its
    lanes by one kernel call, the other tenants' states written into
    theirs -- lane for lane the positions of the requests in order; a
    loop whose rows do not fit the lanes is refused."""
    game = make_game("connect4")
    loops = []
    for seed, n_trees in ((1, 3), (2, 1), (3, 4)):
        engine = session(
            "kernel", game, near_end(game, 6, seed), "root", n_trees, seed,
            1.0, None, False, None,
        )
        rnd = engine.open_round()
        assert rnd.select()
        loops.append(rnd.loop)
    states = [near_end(game, plies, 9) for plies in (0, 3, 11)]
    requests = [loops[0], states[:2], loops[1], [], states[2:], loops[2]]
    parts, lo = [], 0
    for reqs in requests:
        parts.append((lo, reqs))
        lo += len(reqs)
    want = [state for reqs in requests for state in reqs]
    got = launch_positions(game, parts, lo)
    assert list(got) == want
    for column, expected in zip(got.columns(), Positions(want).columns()):
        np.testing.assert_array_equal(column, expected)
    with pytest.raises(ValueError, match="do not fit"):
        launch_positions(game, parts, lo - 1)


@st.composite
def setups(draw):
    game_name = draw(st.sampled_from(GAMES))
    max_plies = make_game(game_name).max_game_length
    kind = draw(st.sampled_from(("root", "root", "sequential")))
    return dict(
        game_name=game_name,
        kind=kind,
        # A walk to the end stops next to a terminal position: trees
        # that are solved after a few iterations.
        plies=draw(st.just(max_plies) | st.integers(0, max_plies)),
        n_trees=draw(st.integers(1, 5)),
        seed=draw(st.integers(0, 2**16)),
        budget_s=draw(
            st.sampled_from((1e-6, 5e-6, 2e-4, 6e-4))
            | st.floats(1e-6, 1e-3, allow_nan=False)
        ),
        cap=draw(st.none() | st.integers(1, 40)),
        tiny=draw(st.booleans()),
        hook=draw(st.booleans()),
        guard=(
            None
            if kind == "sequential"
            else draw(
                st.sampled_from((None, None, "seed=5", "poison=tree:0"))
            )
        ),
        corrupt=draw(st.booleans()),
        # A cohort engine's clock has moved on before its session.
        start=draw(st.sampled_from((0.0, 0.0, 0.37, 1e-3 / 3))),
    )


@settings(max_examples=60, deadline=None)
@given(setups())
def test_kernel_loop_matches_the_python_round(setup):
    game = make_game(setup.pop("game_name"))
    check(game, near_end(game, setup.pop("plies"), setup["seed"]), **setup)


@pytest.mark.parametrize("kind", ["root", "sequential"])
@pytest.mark.parametrize("game_name", GAMES)
def test_corrupted_answers_are_delivered_as_the_python_round_delivers(
    game_name, kind
):
    """Winners no playout returns are a visit and no win; a ply count
    outside the table is refused by the kernel, charged in Python with
    ``iteration_time`` and the loop resumed -- on both kinds, the
    sequential one on a clock that does not start at zero."""
    game = make_game(game_name)
    root = near_end(game, 4, 9)
    check(
        game, root, 3, 9, 4e-4, None, True, kind=kind, corrupt=True,
        start=0.25 if kind == "sequential" else 0.0,
    )


@pytest.mark.skipif(not compiled_available(), reason="no compiled kernels")
@pytest.mark.parametrize("plies", BAD_PLIES)
def test_a_ply_count_outside_the_table_is_charged_in_python(plies):
    """The kernel refuses a delivery whose ply counts the table does not
    hold, having written nothing; ``LoopRound.mend`` credits and charges
    it, and the session ends as the Python body ends it."""
    game = make_game("tictactoe")
    root = game.initial_state()
    runs = []
    for store in ("kernel", "python"):
        engine = session(
            store, game, root, "root", 2, 4, 3e-4, None, False, None
        )
        rnd = engine.open_round()
        mended = []
        if store == "kernel":
            mend = rnd.mend
            rnd.mend = lambda *args: (mended.append(args), mend(*args))
        step = 0
        while rnd.select():
            bad = step == 1
            rnd.deliver(
                [
                    (1, plies if bad else 3)
                    for _ in range(len(rnd.requests))
                ]
            )
            step += 1
        assert not mended or len(mended) == 1
        runs.append((outcome(rnd.finish()), clocks_of(rnd), bool(mended)))
    assert runs[0][:2] == runs[1][:2]
    assert runs[0][2]


@pytest.mark.parametrize("game_name", GAMES)
@pytest.mark.parametrize(
    "budget_s,cap",
    [(1e9, 7), (2e-4, None), (1e9, 1)],
    ids=["cap_inside_the_run", "budget_inside_the_run", "cap_of_one"],
)
def test_a_solved_root_ends_in_one_call(game_name, budget_s, cap):
    """From a position one move from the end every sub-round is all
    terminal: the kernel runs the whole session in one call -- the cap
    or the budget met inside the run -- and no playout is asked for."""
    game = make_game(game_name)
    root = next(
        state
        for seed in range(500)
        for state in [near_end(game, game.max_game_length, seed)]
        if all(
            game.is_terminal(game.apply(state, mv))
            for mv in game.legal_moves(state)
        )
    )
    for tiny in (False, True):
        log, _, result, calls, _ = check(
            game, root, 3, 11, budget_s, cap, tiny
        )
        assert [entry[0] for entry in log] == ["end"]
        assert result.simulations == result.iterations > 0
        if compiled_available():
            assert [subs > 0 and rows == 0 for _, subs, rows, _ in calls] == [
                True
            ]


@pytest.mark.skipif(not compiled_available(), reason="no compiled kernels")
@pytest.mark.parametrize(
    "game_name,plies,budget_s", [("connect4", 6, 3e-4), ("tictactoe", 3, 5e-4)]
)
def test_a_session_spent_settling_makes_no_last_select_call(
    game_name, plies, budget_s
):
    """A session whose clocks run out as its last round's playouts are
    charged -- its settle, which the loop's delivery is -- ends in the
    call that delivers them, with no select call after it: that call
    hands back no rows, and no call before it comes back without
    playout rows."""
    game = make_game(game_name)
    engine = session(
        "kernel", game, near_end(game, plies, 5), "root", 3, 7, budget_s,
        None, False, None,
    )
    _, _, _, calls, _ = drive(engine, hook=False)
    assert calls[-1][:3] == (True, 0, 0)
    assert all(subs > 0 and rows > 0 for _, subs, rows, _ in calls[:-1])
    assert all(delivered for delivered, *_ in calls[1:])


@pytest.mark.skipif(not compiled_available(), reason="no compiled kernels")
@pytest.mark.parametrize("kind", ["root", "sequential"])
def test_the_arena_grows_between_a_delivery_and_the_select_after_it(kind):
    """A call that delivers and then runs out of room stops with the
    answers credited; the arena grows and the loop selects on without
    delivering them twice -- as the Python body runs the session."""
    game = make_game("reversi")
    kernel = check(
        game, game.initial_state(), 2, 13, 8e-4, None, True, kind=kind
    )
    assert any(delivered and grew for delivered, _, _, grew in kernel[3])


@pytest.mark.parametrize("game_name", GAMES)
def test_sessions_selected_together_match_each_alone(game_name):
    """``run_rounds`` over several sessions of one game delivers and
    selects every loop in one many-arena call a round, each tenant's
    loop in its own rows (some of them growing mid-loop): every session
    ends as it ends alone on the Python bodies."""
    together_matches_alone(game_name, corrupt=False)


@pytest.mark.parametrize("game_name", GAMES)
def test_sessions_selected_together_take_corrupted_answers_as_alone(
    game_name,
):
    """The same, answered with corrupted winners and ply counts the
    table does not hold: a refused tenant is mended in Python and the
    many-arena call resumes from it."""
    together_matches_alone(game_name, corrupt=True)


def together_matches_alone(game_name, corrupt):
    game = make_game(game_name)
    specs = [
        (near_end(game, plies, seed), kind, n_trees, seed, cap, tiny, start)
        for plies, kind, n_trees, seed, cap, tiny, start in [
            (game.max_game_length, "root", 3, 1, None, True, 0.0),
            (game.max_game_length - 3, "root", 2, 2, 9, False, 0.0),
            (4, "sequential", 1, 5, None, True, 0.5),
            (4, "root", 4, 3, None, True, 0.0),
            (game.max_game_length, "root", 1, 4, 5, False, 0.0),
        ]
    ]

    def executor(segments):
        return [
            answer(game, s, 0, corrupt) for _, states in segments for s in states
        ]

    def run(store, together):
        engines = [
            session(
                store, game, root, kind, n, seed, 3e-4, cap, tiny, None,
                start,
            )
            for root, kind, n, seed, cap, tiny, start in specs
        ]
        rounds = [engine.open_round() for engine in engines]
        if together:
            results = run_rounds(rounds, executor)
        else:
            results = [run_rounds([rnd], executor)[0] for rnd in rounds]
        return [outcome(result) for result in results], [
            engine.clock.now.hex() for engine in engines
        ]

    assert run("kernel", True) == run("python", False) == run("node", False)
