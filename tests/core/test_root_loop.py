"""Differential wall for the root select loop (``root_loop`` in
``playout.c``, behind ``TreeArena.select_loop`` and the many-arena
``select_round_many``).

On a compiled arena a ``root:N`` session runs its select loop in one
kernel call: sub-rounds over the trees with budget left, each terminal
leaf credited its winner and its tree's core clock charged
``iteration_time(depth, 0)`` in C, until a sub-round selects a leaf that
needs a playout; only those rows come back.  ``RootRound``'s Python
body is the reference: on a pointer forest, and on an arena on its
Python bodies, it must see the same requests, leave the same node ids,
visits and wins, and charge the same clocks bit for bit -- from
near-terminal positions of all three games (solved trees), at budget
and iteration-cap edges, from a capacity that makes the arena grow
mid-loop, and with an iteration hook or an integrity guard, which see
every sub-round (one per kernel call).  Without a library the "kernel"
session runs the Python bodies too, and the wall holds the arena's
Python bodies to the pointer forest.
"""

from __future__ import annotations

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compiled import COMPILED_GAMES, RootLoop, compiled_available
from repro.core import make_engine
from repro.core.arena import TreeArena, compiled_arena
from repro.core.rounds import run_rounds
from repro.faults import FaultInjector, FaultPlan
from repro.games import make_game
from tests.core.test_arena import columns

pytestmark = pytest.mark.compiled

GAMES = sorted(COMPILED_GAMES)
#: The three stores a session runs on: the kernel's loop (an arena on
#: the compiled bodies where there are some), an arena on the Python
#: bodies, a pointer forest.
STORES = ("kernel", "python", "node")


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


def answer(game, state, step: int) -> tuple[int, int]:
    """A made-up ``(winner, plies)`` playout answer, a function of the
    position and the round alone, so every store is answered alike."""
    p1, p2, to_move = position(game, state)
    mix = (p1 * 0x9E3779B1 + p2 * 0x85EBCA77 + step * 31 + to_move) % 1009
    return mix % 3 - 1, mix % 11


def session(store, game, root, n_trees, seed, budget_s, cap, tiny, guard):
    """A ``root:N`` engine with a live session on ``store``, answered by
    the caller (no executor)."""
    engine = make_engine(
        f"root:{n_trees}",
        game,
        seed,
        backend="node" if store == "node" else "arena",
        max_iterations=cap,
        injector=(
            None if guard is None else FaultInjector(FaultPlan.parse(guard))
        ),
    )
    engine._begin_session(root, budget_s, None)
    forest = engine._live["forest"]
    if store != "node":
        if tiny:
            # Capacity == allocated: the first sub-round grows the arena.
            forest.compact()
        if store == "python":
            forest._cols = None
    return engine


def clocks(live) -> tuple:
    """The session's counters, clocks bit for bit."""
    return (
        [t.hex() for t in live["core_time"]],
        list(live["per_tree_iters"]),
        live["iterations"],
        live["simulations"],
    )


def drive(engine, hook: bool):
    """Run ``engine``'s session to its end; everything each round and
    each hook saw, the store's columns (arenas) and the result -- and
    the sub-rounds of each kernel call."""
    game, live = engine.game, engine._live
    log, calls = [], []
    if hook:
        engine.iteration_hook = lambda _, it: log.append(
            ("hook", it, clocks(live))
        )
    rnd = engine.open_round()
    store = rnd.store

    def spy(trees, loop):
        answer = TreeArena.select_loop(store, trees, loop)
        calls.append(loop.sub_rounds)
        return answer

    if isinstance(store, TreeArena):
        store.select_loop = spy
    try:
        step = 0
        while rnd.select():
            arena = isinstance(store, TreeArena)
            log.append(
                (
                    "round",
                    [position(game, s) for s in rnd.requests],
                    list(rnd.active),
                    list(rnd.depths),
                    list(rnd.refs) if arena else None,
                    clocks(live),
                )
            )
            rnd.deliver([answer(game, s, step) for s in rnd.requests])
            step += 1
        log.append(("end", clocks(live)))
        tree = columns(store) if isinstance(store, TreeArena) else None
    finally:
        store.__dict__.pop("select_loop", None)
    result = rnd.finish()
    return log, tree, result, calls


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
    game, root, n_trees, seed, budget_s, cap, tiny, hook=False, guard=None
):
    """One session from ``root`` on every store, held to each other;
    the kernel's run."""
    runs = {}
    for store in STORES:
        engine = session(
            store, game, root, n_trees, seed, budget_s, cap, tiny, guard
        )
        assert compiled_arena(engine._live["forest"]) == (
            store == "kernel" and compiled_available()
        )
        runs[store] = drive(engine, hook)
    kernel, python, node = (runs[store] for store in STORES)
    # Node ids, visits, wins, clocks bit for bit: arena for arena.
    assert kernel[0] == python[0]
    assert kernel[1] == python[1]
    assert outcome(kernel[2]) == outcome(python[2])
    # The same search on pointer trees.
    assert without_refs(kernel[0]) == without_refs(node[0])
    assert outcome(kernel[2]) == outcome(node[2])
    # Every kernel call finds a tree with budget left: ``wants`` reads
    # the budget off the session's lists before it calls.
    assert 0 not in kernel[3]
    if hook or guard is not None:
        # A guard or hook sees every sub-round: one per kernel call.
        assert set(kernel[3]) <= {1}
    return kernel


@pytest.mark.skipif(not compiled_available(), reason="no compiled kernels")
def test_a_loop_for_another_tree_count_is_refused():
    """The loop's columns must hold one row per tree of the arena:
    anything else is refused before the arena is touched."""
    game = make_game("tictactoe")
    engine = session(
        "kernel", game, game.initial_state(), 3, 1, 1.0, None, False, None
    )
    arena = engine._live["forest"]
    before = columns(arena)
    table = np.zeros(game.max_game_length + 2)
    for n_trees in (2, 4):
        loop = RootLoop.of(n_trees, 1.0, float("inf"), table)
        with pytest.raises(ValueError, match="outside the arena"):
            arena.select_loop(range(3), loop)
    assert columns(arena) == before


@st.composite
def setups(draw):
    game_name = draw(st.sampled_from(GAMES))
    max_plies = make_game(game_name).max_game_length
    return dict(
        game_name=game_name,
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
        guard=draw(st.sampled_from((None, None, "seed=5", "poison=tree:0"))),
    )


@settings(max_examples=60, deadline=None)
@given(setups())
def test_kernel_loop_matches_the_python_round(setup):
    game = make_game(setup.pop("game_name"))
    check(game, near_end(game, setup.pop("plies"), setup["seed"]), **setup)


@pytest.mark.parametrize("game_name", GAMES)
@pytest.mark.parametrize(
    "budget_s,cap",
    [(1e9, 7), (2e-4, None), (1e9, 1)],
    ids=["cap_inside_the_run", "budget_inside_the_run", "cap_of_one"],
)
def test_a_solved_root_ends_in_one_call(game_name, budget_s, cap):
    """From a position one move from the end every sub-round is all
    terminal: once the first one has met them, the kernel runs the rest
    of the session in one call -- the cap or the budget met inside the
    run -- and no playout is asked for."""
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
        log, _, result, calls = check(game, root, 3, 11, budget_s, cap, tiny)
        assert [entry[0] for entry in log] == ["end"]
        assert result.simulations == result.iterations > 0
        if compiled_available() and (cap is None or cap > 1):
            assert len(calls) == 1 and calls[0] > 0


@pytest.mark.skipif(not compiled_available(), reason="no compiled kernels")
@pytest.mark.parametrize(
    "game_name,plies,budget_s", [("connect4", 6, 3e-4), ("tictactoe", 3, 5e-4)]
)
def test_a_session_spent_settling_makes_no_last_select_call(
    game_name, plies, budget_s
):
    """A session whose clocks run out in ``settle`` -- its last round's
    playouts charged -- is over without one more select call, which
    would find no tree with budget left: every kernel call of the loop
    runs sub-rounds, and the last one hands back playout rows."""
    game = make_game(game_name)
    root = near_end(game, plies, 5)
    engine = session("kernel", game, root, 3, 7, budget_s, None, False, None)
    rnd = engine.open_round()
    store, calls = rnd.store, []

    def spy(trees, loop):
        answer = TreeArena.select_loop(store, trees, loop)
        calls.append((loop.sub_rounds, len(answer[0])))
        return answer

    store.select_loop = spy
    rounds = 0
    while rnd.select():
        rnd.deliver([answer(game, s, rounds) for s in rnd.requests])
        rounds += 1
    # The loop took over, and the session ran out settling a round.
    assert calls and calls[-1][1] > 0
    assert all(sub_rounds > 0 and rows > 0 for sub_rounds, rows in calls)


@pytest.mark.parametrize("game_name", GAMES)
def test_sessions_selected_together_match_each_alone(game_name):
    """``run_rounds`` over several sessions of one game selects them in
    one many-arena call per sub-round, each tenant's loop in its own
    rows (some of them growing mid-loop): every session ends as it ends
    alone on the Python bodies."""
    game = make_game(game_name)
    specs = [
        (near_end(game, plies, seed), n_trees, seed, cap, tiny)
        for plies, n_trees, seed, cap, tiny in [
            (game.max_game_length, 3, 1, None, True),
            (game.max_game_length - 3, 2, 2, 9, False),
            (4, 4, 3, None, True),
            (game.max_game_length, 1, 4, 5, False),
        ]
    ]

    def executor(states):
        return [answer(game, s, 0) for s in states]

    def run(store, together):
        rounds = [
            session(store, game, root, n, seed, 3e-4, cap, tiny, None)
            .open_round()
            for root, n, seed, cap, tiny in specs
        ]
        if together:
            results = run_rounds(rounds, executor)
        else:
            results = [run_rounds([rnd], executor)[0] for rnd in rounds]
        return [outcome(result) for result in results], [
            ([t.hex() for t in rnd.core_time], rnd.per_tree_iters)
            for rnd in rounds
        ]

    assert run("kernel", True) == run("python", False) == run("node", False)
