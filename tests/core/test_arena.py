"""Unit and property tests for the struct-of-arrays tree arena.

Five layers:

* structural invariants after real (tiny) searches -- child spans,
  parent links, visit accounting -- swept directly over the arrays;
* growth transparency: a capacity-starved arena that regrows many
  times must match a comfortably pre-sized one bit for bit;
* ``compact()`` round trips (hypothesis over seeds): compacting
  mid-search and searching on yields exactly the search that never
  compacted;
* the two sets of bodies: the compiled kernels and the Python bodies
  leave every column, every snapshot and every error identical;
* reuse (hypothesis over session runs): an arena reopened from the
  free list equals a freshly built one, and no search result depends
  on whether its arena was reopened.
"""

import warnings
from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compiled import ArenaColumns
from repro.core import arena as arena_mod
from repro.core import make_engine
from repro.core.arena import ArenaInvariantError, TreeArena
from repro.core.backend import make_tree
from repro.core.tree import SearchTree
from repro.games import TicTacToe, make_game
from repro.rng import XorShift64Star
from repro.serve import WorkloadConfig, make_workload, serve

GAME = TicTacToe()


def drive(arena: TreeArena, iterations: int, seed: int) -> None:
    """Run ``iterations`` single-tree MCTS iterations on tree 0 with a
    deterministic playout stream."""
    playout_rng = XorShift64Star(seed ^ 0xDEAD)
    for _ in range(iterations):
        node, _ = arena.select_expand(0)
        if arena.terminal_of(node):
            arena.backprop_winner(node, arena.winner_of(node))
        else:
            winner, _ = GAME.playout(arena.state_of(node), playout_rng)
            arena.backprop_winner(node, winner)


def make_arena(seed: int, capacity: int | None = None) -> TreeArena:
    return TreeArena(
        GAME,
        GAME.initial_state(),
        [XorShift64Star(seed)],
        1.0,
        capacity=capacity,
    )


def columns(arena: TreeArena) -> dict:
    """Every array the arena owns, cut to what is allocated."""
    n = arena._allocated
    out = {
        name: getattr(arena, name)[:n].tolist()
        for name, *_ in arena._COLUMNS
    }
    for name in ("rng_state", "roots", "tree_node_count", "tree_max_depth"):
        out[name] = getattr(arena, name).tolist()
    return out


def payload(arena: TreeArena) -> dict:
    """``snapshot()`` with its arrays as lists, so ``==`` compares."""
    snap = arena.snapshot()
    snap["arrays"] = {k: v.tolist() for k, v in snap["arrays"].items()}
    for name in ("roots", "tree_node_count", "tree_max_depth"):
        snap[name] = snap[name].tolist()
    return snap


def logical(arena: TreeArena) -> list:
    """The trees' content in breadth-first order, free of node ids:
    what must survive ``compact()``."""
    out = []
    for t in range(arena.n_trees):
        queue = [int(arena.roots[t])]
        for node in queue:
            left = int(arena.untried_count[node])
            out.append(
                (
                    arena.state_of(node),
                    int(arena.move[node]),
                    arena.untried_order[node, :left].tolist(),
                    arena.untried_mask[node].tolist(),
                    float(arena.visits[node]),
                    float(arena.wins[node]),
                )
            )
            start = int(arena.child_start[node])
            queue.extend(range(start, start + int(arena.child_count[node])))
    return out + arena.rng_state.tolist()


def sweep_invariants(arena: TreeArena) -> None:
    """Array-level structural invariants every engine relies on."""
    n = arena._allocated
    for node in range(n):
        assert 0.0 <= arena.wins[node] <= arena.visits[node]
        assert arena.vloss[node] == 0.0
        start = int(arena.child_start[node])
        count = int(arena.child_count[node])
        if start < 0:
            assert count == 0
            continue
        # The reserved span fits the allocation and the filled prefix
        # fits the reservation.
        assert 0 <= count <= int(arena.n_legal[node])
        assert start + int(arena.n_legal[node]) <= n
        child_visits = 0.0
        for c in range(start, start + count):
            assert int(arena.parent[c]) == node
            assert int(arena.mover[c]) == int(arena.to_move[node])
            assert int(arena.move[c]) >= 0
            child_visits += float(arena.visits[c])
        assert arena.visits[node] >= child_visits


def test_invariants_after_search():
    arena = make_arena(seed=11)
    drive(arena, 200, seed=11)
    sweep_invariants(arena)
    assert arena.tree_node_count[0] == 201
    assert arena.visits[int(arena.roots[0])] == 200


def test_moves_unique_within_span():
    arena = make_arena(seed=5)
    drive(arena, 150, seed=5)
    for node in range(arena._allocated):
        start = int(arena.child_start[node])
        count = int(arena.child_count[node])
        if start < 0:
            continue
        moves = [int(arena.move[c]) for c in range(start, start + count)]
        assert len(moves) == len(set(moves))


def test_arena_tree_matches_pointer_tree():
    """Identical RNG seed and playout stream => identical root stats on
    the SearchTree and a one-tree arena."""
    iterations = 120
    seed = 31

    def run(tree):
        playout_rng = XorShift64Star(99)
        for _ in range(iterations):
            node, _ = tree.select_expand()
            if tree.terminal_of(node):
                tree.backprop_winner(node, tree.winner_of(node))
            else:
                winner, _ = GAME.playout(tree.state_of(node), playout_rng)
                tree.backprop_winner(node, winner)
        return tree.root_stats(), tree.node_count, tree.max_depth

    pointer = run(
        SearchTree(GAME, GAME.initial_state(), XorShift64Star(seed), 1.0)
    )
    arena = run(
        make_tree(
            "arena", GAME, GAME.initial_state(), XorShift64Star(seed), 1.0
        )
    )
    assert arena == pointer


@settings(max_examples=12, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32),
    iterations=st.integers(min_value=1, max_value=150),
)
def test_growth_is_transparent(seed, iterations):
    """Starting from a tiny capacity (many regrows) must match a
    pre-sized arena exactly."""
    tiny = make_arena(seed, capacity=2)
    big = make_arena(seed, capacity=4096)
    drive(tiny, iterations, seed)
    drive(big, iterations, seed)
    assert tiny.root_stats(0) == big.root_stats(0)
    assert tiny.tree_node_count[0] == big.tree_node_count[0]
    assert tiny.tree_max_depth[0] == big.tree_max_depth[0]
    # Same allocation sequence, so the same slots: planes, order rows
    # and generator words all survived every regrow.
    assert columns(tiny) == columns(big)
    assert payload(tiny) == payload(big)


@settings(max_examples=12, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32),
    before=st.integers(min_value=1, max_value=80),
    after=st.integers(min_value=1, max_value=80),
)
def test_compact_round_trip(seed, before, after):
    """compact() mid-search changes node ids but nothing observable:
    searching on gives the bit-identical uncompacted search."""
    plain = make_arena(seed)
    compacted = make_arena(seed)
    drive(plain, before + after, seed)
    drive(compacted, before, seed)
    before_compact = logical(compacted)
    compacted.compact()
    sweep_invariants(compacted)
    compacted.validate()
    assert logical(compacted) == before_compact
    # The playout RNG stream must continue where it left off, so
    # recreate its position by re-running the first ``before`` rounds
    # on a throwaway arena (same seed => same draws consumed).
    playout_rng = XorShift64Star(seed ^ 0xDEAD)
    shadow = make_arena(seed)
    for _ in range(before):
        node, _ = shadow.select_expand(0)
        if shadow.terminal_of(node):
            shadow.backprop_winner(node, shadow.winner_of(node))
        else:
            winner, _ = GAME.playout(shadow.state_of(node), playout_rng)
            shadow.backprop_winner(node, winner)
    for _ in range(after):
        node, _ = compacted.select_expand(0)
        if compacted.terminal_of(node):
            compacted.backprop_winner(node, compacted.winner_of(node))
        else:
            winner, _ = GAME.playout(
                compacted.state_of(node), playout_rng
            )
            compacted.backprop_winner(node, winner)
    assert compacted.root_stats(0) == plain.root_stats(0)
    assert compacted.tree_node_count[0] == plain.tree_node_count[0]
    assert compacted.tree_max_depth[0] == plain.tree_max_depth[0]
    assert logical(compacted) == logical(plain)


def test_compact_trims_capacity():
    arena = make_arena(seed=3, capacity=4096)
    drive(arena, 50, seed=3)
    allocated = arena._allocated
    arena.compact()
    assert arena._allocated == allocated
    assert len(arena.visits) == allocated


@settings(max_examples=8, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32))
def test_multi_tree_lockstep_matches_per_tree_walks(seed):
    """select_expand_all over B trees == B independent select_expand
    walks, tree by tree, in the same per-tree RNG order."""
    game = make_game("connect4")
    rngs_a = [XorShift64Star(seed + b) for b in range(4)]
    rngs_b = [XorShift64Star(seed + b) for b in range(4)]
    lockstep = TreeArena(game, game.initial_state(), rngs_a, 1.0)
    scalar = TreeArena(game, game.initial_state(), rngs_b, 1.0)
    for _ in range(40):
        leaves, depths = lockstep.select_expand_all()
        for t in range(4):
            node, depth = scalar.select_expand(t)
            assert depth == int(depths[t])
            assert scalar.state_of(node) == lockstep.state_of(
                int(leaves[t])
            )
            winner = 1 if (t + depth) % 2 else -1
            scalar.backprop_winner(node, winner)
            lockstep.backprop_winner(int(leaves[t]), winner)
    for t in range(4):
        assert lockstep.root_stats(t) == scalar.root_stats(t)


class TestValidateAudit:
    """The restore-time structural audit: a healthy arena passes, and
    each class of corruption is caught with a pointed error."""

    def _searched(self, seed=17, iterations=120):
        arena = make_arena(seed=seed)
        drive(arena, iterations, seed=seed)
        return arena

    def test_searched_arena_validates(self):
        self._searched().validate()

    def test_snapshot_restore_validates(self):
        arena = self._searched()
        rebuilt = TreeArena.from_snapshot(GAME, arena.snapshot())
        rebuilt.validate()
        sweep_invariants(rebuilt)

    def test_restored_arena_continues_identically(self):
        arena = self._searched(iterations=60)
        rebuilt = TreeArena.from_snapshot(GAME, arena.snapshot())
        drive(arena, 60, seed=99)
        drive(rebuilt, 60, seed=99)
        assert list(arena.visits[: arena._allocated]) == list(
            rebuilt.visits[: rebuilt._allocated]
        )
        assert list(arena.wins[: arena._allocated]) == list(
            rebuilt.wins[: rebuilt._allocated]
        )

    def test_detects_broken_node_count(self):
        arena = self._searched()
        arena.tree_node_count[0] += 1
        with pytest.raises(ArenaInvariantError, match="BFS reaches"):
            arena.validate()

    def test_detects_rooted_root(self):
        arena = self._searched()
        arena.parent[int(arena.roots[0])] = 0
        with pytest.raises(ArenaInvariantError, match="has a parent"):
            arena.validate()

    def test_detects_untried_bookkeeping_drift(self):
        arena = self._searched()
        node = next(
            n
            for n in range(arena._allocated)
            if arena.untried_count[n] > 0
        )
        arena.untried_count[node] += 1
        with pytest.raises(ArenaInvariantError, match="untried"):
            arena.validate()

    def test_detects_mask_order_disagreement(self):
        arena = self._searched()
        node = next(
            n
            for n in range(arena._allocated)
            if arena.untried_count[n] > 0
        )
        arena.untried_mask[node, :] = 0
        with pytest.raises(ArenaInvariantError, match="bitmask"):
            arena.validate()


# -- the compiled and the Python bodies --------------------------------------

ALL_GAMES = ["reversi", "tictactoe", "connect4", "breakthrough"]

#: These drive the C kernels through a growing arena (column addresses
#: change under them), so the sanitizer job should see them too.
uses_kernel = pytest.mark.compiled


@pytest.fixture(params=["kernel", "python"])
def body(request, monkeypatch):
    """Run a test under each set of bodies: the compiled kernels (where
    the host has them) and the Python bodies (loader patched to None
    before the arena is built -- an arena binds its kernels once)."""
    if request.param == "python":
        monkeypatch.setattr("repro.compiled.runner.load_library", lambda: None)
    return request.param


def forest(game, seed: int, n_trees: int = 6, state=None) -> TreeArena:
    return TreeArena(
        game,
        game.initial_state() if state is None else state,
        [XorShift64Star(seed + t) for t in range(n_trees)],
        capacity=4,
    )


def drive_all(arena: TreeArena, rounds: int, offset: int = 0) -> None:
    """Lockstep rounds with a deterministic stand-in for the playout;
    every third round goes tree by tree through ``select_expand``, and
    every other lockstep round one tree runs a whole iteration of its
    own between the selection and its backprop, as ``hybrid`` does."""
    trees = np.arange(arena.n_trees)
    for r in range(offset, offset + rounds):
        if r % 3 == 2:
            walks = [arena.select_expand(t) for t in trees.tolist()]
            leaves = np.array([leaf for leaf, _ in walks])
            depths = np.array([depth for _, depth in walks])
        else:
            leaves, depths = arena.select_expand_all()
            if r % 2:
                leaf, depth = arena.select_expand(r % arena.n_trees)
                arena.backprop_winner(leaf, (r + depth) % 3 - 1)
        winners = (trees + r + depths) % 3 - 1
        arena.backprop_many(
            leaves, 1.0, winners == 1, winners == -1, winners == 0
        )


@uses_kernel
@pytest.mark.parametrize("game_name", ALL_GAMES)
def test_kernel_and_python_bodies_agree(game_name, monkeypatch):
    """Same seeds, one arena on the compiled bodies (descent +
    expansion and backprop kernels) and one on the Python bodies, 240
    rounds each: every column, the allocation cursor, the snapshot
    payload and the audit stay equal.  (Without a toolchain both runs
    take the Python bodies; breakthrough has no kernels and must fall
    back without a word.)"""
    game = make_game(game_name)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        compiled = forest(game, seed=41)
        drive_all(compiled, 240)
    with monkeypatch.context() as patch:
        patch.setattr("repro.compiled.runner.load_library", lambda: None)
        python = forest(game, seed=41)
        drive_all(python, 240)
        assert python._compiled() is None
    assert compiled.allocated == python.allocated
    assert columns(compiled) == columns(python)
    assert payload(compiled) == payload(python)
    compiled.validate()
    python.validate()
    sweep_invariants(python)
    # One node per tree per round, plus the interleaved iterations.
    assert len(compiled) == 6 * 241 + sum(
        1 for r in range(240) if r % 3 != 2 and r % 2
    )


@uses_kernel
@pytest.mark.parametrize("game_name", ALL_GAMES)
def test_mid_search_snapshot_continues_identically(game_name, body):
    """A snapshot taken mid-search restores and continues bit for bit,
    under either expansion body."""
    game = make_game(game_name)
    arena = forest(game, seed=7)
    drive_all(arena, 25)
    rebuilt = TreeArena.from_snapshot(game, arena.snapshot())
    rebuilt.validate()
    assert payload(rebuilt) == payload(arena)
    drive_all(arena, 25, offset=25)
    drive_all(rebuilt, 25, offset=25)
    assert payload(rebuilt) == payload(arena)
    assert logical(rebuilt) == logical(arena)


@uses_kernel
@pytest.mark.parametrize(
    "game_name,bad_move",
    [("reversi", 27), ("reversi", 0), ("tictactoe", 4), ("connect4", 3)],
)
@pytest.mark.parametrize("lockstep", [True, False])
def test_corrupted_order_raises_the_games_error(
    game_name, bad_move, lockstep, body
):
    """An untried order that holds an illegal move (occupied square,
    non-flipping square, full column) fails expansion with exactly the
    scalar game's ``ValueError`` under either body, and nothing is
    stored for the bad row."""
    game = make_game(game_name)
    state = game.initial_state()
    if game_name == "tictactoe":
        state = game.apply(state, bad_move)
    if game_name == "connect4":
        for _ in range(6):
            state = game.apply(state, bad_move)
    with pytest.raises(ValueError) as scalar:
        game.apply(state, bad_move)
    arena = forest(game, seed=3, n_trees=3, state=state)
    root = int(arena.roots[1])
    arena.untried_order[root, arena.untried_count[root] - 1] = bad_move
    with pytest.raises(ValueError) as raised:
        if lockstep:
            arena.select_expand_all()
        else:
            arena.select_expand(1)
    assert str(raised.value) == str(scalar.value)
    assert arena.tree_node_count[1] == 1
    assert arena.child_count[root] == 0


# ---------------------------------------------------------------------------
# Reopening a released arena (TreeArena.open / release)
# ---------------------------------------------------------------------------

REUSE_GAMES = ["tictactoe", "connect4", "reversi"]


@contextmanager
def private_free_list():
    """An empty free list of released arenas, for the block's
    sessions alone."""
    saved = arena_mod._FREE_ARENAS
    arena_mod._FREE_ARENAS = free = {}
    try:
        yield free
    finally:
        arena_mod._FREE_ARENAS = saved


def every_row(arena: TreeArena, rows: int) -> dict:
    """Every column's first ``rows`` rows -- past the cursor too."""
    return {
        name: getattr(arena, name)[:rows].tolist()
        for name, *_ in arena._COLUMNS
    }


def session_of(arena: TreeArena) -> tuple:
    cols = arena._compiled()
    bound = None if cols is None else (cols.ucb_c, cols.wuct)
    return (
        arena.allocated,
        arena.ucb_c,
        arena.parallel_mode,
        arena._vloss_active,
        bound,
    )


def play_rounds(store, rounds: int, seed: int) -> None:
    """Rounds of two selections per tree, the first one's leaves held
    under virtual loss while the second selects (what ``tree:N`` does
    on a shared tree), then both credited."""
    trees = list(range(store.n_trees))
    for r in range(rounds):
        which = trees if r % 2 else trees[seed % len(trees) :]
        first, depths, _, _ = store.select_round(which)
        for ref in first:
            store.apply_virtual_loss(ref)
        second, more, _, _ = store.select_round(which)
        for ref in first:
            store.revert_virtual_loss(ref)
        store.backprop_winners(
            first, [(seed + r + d) % 3 - 1 for d in depths]
        )
        store.backprop_winners(second, [(seed - r + d) % 3 - 1 for d in more])


@st.composite
def reuse_sessions(draw):
    """A run of sessions over one or two ``(game, n_trees)`` shapes, so
    most sessions reopen an arena an earlier one released."""
    shapes = draw(
        st.lists(
            st.tuples(st.sampled_from(REUSE_GAMES), st.integers(1, 8)),
            min_size=1,
            max_size=2,
        )
    )
    return draw(
        st.lists(
            st.tuples(
                st.sampled_from(shapes),
                st.sampled_from(["vloss", "wuct"]),
                st.sampled_from([0.5, 1.0, 1.4]),
                st.integers(0, 2**20),
                st.integers(1, 16),
            ),
            min_size=2,
            max_size=8,
        )
    )


@settings(max_examples=25, deadline=None)
@given(reuse_sessions())
def test_reopened_arena_equals_a_fresh_one(sessions):
    """A run of sessions through ``TreeArena.open``: right after it, a
    reopened arena holds exactly a fresh arena's columns -- and only
    defaults past the fresh capacity, so no round ever wrote past its
    cursor -- and searching on keeps them equal, until ``release``
    hands it to the next session of its game and tree count."""
    with private_free_list() as free_list:
        reopen_sessions(free_list, sessions)


def reopen_sessions(free_list, sessions) -> None:
    for (name, n_trees), mode, c, seed, rounds in sessions:
        game = make_game(name)
        state = game.initial_state()

        def rngs():
            return [XorShift64Star(seed + t + 1) for t in range(n_trees)]

        free = free_list.get((name, n_trees), [])
        reused = free[-1] if free else None
        arena = TreeArena.open(game, state, rngs(), c, mode)
        assert (arena is reused) == (reused is not None)
        fresh = TreeArena(game, state, rngs(), c, parallel_mode=mode)
        assert arena.capacity >= fresh.capacity
        assert every_row(arena, arena.capacity) == every_row(
            TreeArena(game, state, rngs(), c, arena.capacity, mode),
            arena.capacity,
        )
        assert columns(arena) == columns(fresh)
        assert session_of(arena) == session_of(fresh)
        play_rounds(arena, rounds, seed)
        play_rounds(fresh, rounds, seed)
        arena.validate()
        assert columns(arena) == columns(fresh)
        assert payload(arena) == payload(fresh)
        arena.release()
        arena.release()  # a second release does nothing
        assert free_list[name, n_trees].count(arena) == 1


@st.composite
def reuse_searches(draw):
    """Searches over one or two ``(game, engine kind, n_trees)`` shapes,
    so most reopen an arena an earlier search released."""
    shapes = draw(
        st.lists(
            st.tuples(
                st.sampled_from(REUSE_GAMES),
                st.sampled_from(
                    [
                        "sequential",
                        "root:{n}",
                        "tree:{n}@vloss",
                        "tree:{n}@wuct",
                        "pipeline:{n}",
                        "block:{n}x8",
                    ]
                ),
                st.integers(1, 8),
            ),
            min_size=1,
            max_size=2,
        )
    )
    return draw(
        st.lists(
            st.tuples(
                st.sampled_from(shapes),
                st.integers(0, 2**20),
            ),
            min_size=2,
            max_size=6,
        )
    )


@settings(max_examples=15, deadline=None)
@given(reuse_searches())
def test_search_results_do_not_depend_on_the_free_list(searches):
    """Every search of a run that reopens its predecessors' arenas
    returns what the same search returns from an empty free list."""
    with private_free_list() as free_list:
        search_both_ways(searches)
    assert free_list  # the run did reopen arenas


def search_both_ways(searches) -> None:
    for (name, pattern, n), seed in searches:
        game = make_game(name)
        spec = pattern.format(n=n) + "@arena@compiled"

        def search():
            engine = make_engine(spec, game, seed, max_iterations=4)
            return engine.search(game.initial_state(), 0.002)

        reused = search()
        with private_free_list():
            alone = search()
        assert reused == alone


def test_one_bind_per_fresh_arena_across_a_service_run(monkeypatch):
    """A mixed closed batch on the arena stack builds a few arenas and
    reopens them for every later activation: the compiled columns are
    bound once per built arena, never per activation."""
    built, binds = [], []
    real_init, real_bind = TreeArena.__init__, ArenaColumns.bind.__func__

    def counting_init(self, *args, **kwargs):
        built.append(self)
        real_init(self, *args, **kwargs)

    def counting_bind(cls, arena):
        binds.append(arena)
        return real_bind(cls, arena)

    monkeypatch.setattr(TreeArena, "__init__", counting_init)
    monkeypatch.setattr(ArenaColumns, "bind", classmethod(counting_bind))
    monkeypatch.setattr(arena_mod, "_FREE_ARENAS", {})
    records = serve(
        make_workload(
            WorkloadConfig(
                n_requests=48,
                seed=5,
                budget_scale=0.1,
                deadline_s=None,
                backend="arena",
                playout="compiled",
            )
        ),
        n_devices=2,
        max_active=8,
        seed=5,
        backend="arena",
        playout="compiled",
        fusion=True,
    ).records
    arena_sessions = [r for r in records if r.result is not None]
    assert len(arena_sessions) == 48
    assert len(set(map(id, binds))) == len(binds) == len(built)
    assert len(built) < len(arena_sessions) / 2
