"""Differential wall for the compiled descent + expansion and backprop
kernels (``repro_<game>_select_expand``, ``repro_backprop``,
``repro_backprop_winners``).

One random *plan* -- which trees a round selects and in what order,
lockstep or one at a time, what virtual loss is applied and for how
long, what every playout returned -- is replayed on three
implementations:

* a :class:`TreeArena` on the compiled kernels,
* a :class:`TreeArena` on the Python bodies (loader patched to None),
* a :class:`NodeForest` of pointer trees (:class:`SearchTree`), the
  oracle,

each driven through the one store protocol.

All three must select the same positions at the same depths every
round and end with the same statistics; the two arenas must also agree
on every node id, column and snapshot byte.  A lockstep round of one
playout per tree goes through the two round halves the engines use,
``select_round`` / ``backprop_winners``; one with several through
``select_expand_all`` / ``backprop_many``.  Without a C toolchain
there is no kernel to compare and the tests skip.
"""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.compiled import (
    COMPILED_GAMES,
    backprop_compiled,
    backprop_winners_compiled,
    compiled_available,
    load_library,
    select_expand_compiled,
)
from repro.core.arena import TreeArena
from repro.core.backend import NodeForest
from repro.core.spec import make_engine
from repro.core.tree import SearchTree
from repro.games import make_game
from repro.rng import XorShift64Star
from tests.core.test_arena import columns, payload

pytestmark = pytest.mark.compiled

GAMES = sorted(COMPILED_GAMES)


if not compiled_available():
    pytest.skip(
        "no compiled kernel library on this host", allow_module_level=True
    )


def python_bodies():
    """Arenas built and driven inside run on the Python bodies."""
    return mock.patch("repro.compiled.runner.load_library", lambda: None)


# -- the plan ----------------------------------------------------------------


def make_plan(seed: int, n_trees: int, iterations: int) -> list[dict]:
    """Rounds until ``iterations`` selections are spent.  A *lockstep*
    round is one ``select_round`` / ``select_expand_all`` (every tree,
    or a shuffled subset) answered by one ``backprop_winners`` /
    ``backprop_many``; a *scalar* round is a few ``select_expand(t)``
    calls -- trees may repeat -- each under its own virtual loss, the
    way the shared-tree engines run."""
    rng = np.random.default_rng(seed)
    plan = []
    spent = 0
    while spent < iterations:
        kind = rng.choice(["all", "subset", "scalar"], p=[0.4, 0.35, 0.25])
        if kind == "all":
            trees = None
            k = n_trees
        elif kind == "subset":
            k = int(rng.integers(1, n_trees + 1))
            trees = rng.permutation(n_trees)[:k].tolist()
        else:
            k = int(rng.integers(1, 5))
            trees = rng.integers(0, n_trees, size=k).tolist()
        sims = int(rng.choice([1, 2, 5]))
        # Each row's sims split into black wins / white wins / draws.
        black = rng.integers(0, sims + 1, size=k)
        white = np.array([rng.integers(0, sims - b + 1) for b in black])
        plan.append(
            {
                "kind": kind,
                "trees": trees,
                "sims": sims,
                "black": black.tolist(),
                "white": white.tolist(),
                "draws": (sims - black - white).tolist(),
                # Rows whose answer is lost: nothing is backpropagated.
                "lost": (rng.random(k) < 0.05).tolist(),
                "vloss": float(rng.choice([0.0, 0.25, 0.5, 1.0, 3.0])),
                # Rounds the virtual loss stays on after this one.
                "hold": int(rng.integers(0, 3)),
            }
        )
        spent += k
    return plan


# -- the three implementations ----------------------------------------------


def walk(game, plies: int, seed: int):
    """The last non-terminal position of a random walk of ``plies``."""
    rng = np.random.default_rng(seed)
    state = game.initial_state()
    for _ in range(plies):
        nxt = game.apply(state, int(rng.choice(game.legal_moves(state))))
        if game.is_terminal(nxt):
            break
        state = nxt
    return state


def arena_under_test(game, root, n_trees, seed, **policy) -> TreeArena:
    return TreeArena(
        game,
        root,
        [XorShift64Star(seed + t) for t in range(n_trees)],
        capacity=2,  # every few rounds grow the columns
        **policy,
    )


def pointer_trees(game, root, n_trees, seed, **policy) -> NodeForest:
    return NodeForest(
        [
            SearchTree(game, root, XorShift64Star(seed + t), **policy)
            for t in range(n_trees)
        ]
    )


def backprop_rows(store, refs, sims, black, white, draws) -> None:
    """One ``backprop_many`` on an arena (a lost row's leaf is -1);
    row by row on the pointer trees."""
    if isinstance(store, TreeArena):
        leaves = [-1 if ref is None else ref for ref in refs]
        store.backprop_many(leaves, sims, black, white, draws)
        return
    for ref, *row in zip(refs, black, white, draws):
        if ref is not None:
            store.backprop(ref, sims, *row)


def selected_round(store, trees) -> tuple[list, list]:
    """``select_round``'s refs and depths, once its four columns are
    plain lists that agree with the per-leaf accessors."""
    refs, depths, states, terminal = store.select_round(trees)
    for column in (refs, depths, states, terminal):
        assert type(column) is list and len(column) == len(refs)
    assert {type(depth) for depth in depths} <= {int}
    assert {type(over) for over in terminal} <= {bool}
    if isinstance(store, TreeArena):
        assert {type(ref) for ref in refs} <= {int}
    assert states == [store.state_of(ref) for ref in refs]
    assert terminal == [store.terminal_of(ref) for ref in refs]
    return refs, depths


def replay(store, plan) -> list:
    """Run ``plan`` on ``store`` through the one store protocol;
    returns what every selection found: ``(tree, state, terminal,
    depth)`` in call order."""
    seen = []
    held = []  # (round to revert at, ref, amount)
    for r, step in enumerate(plan):
        for _, ref, amount in [h for h in held if h[0] <= r]:
            store.revert_virtual_loss(ref, amount)
        held = [h for h in held if h[0] > r]
        outcome = step["black"], step["white"], step["draws"]
        if step["kind"] == "scalar":
            walks = []
            for t in step["trees"]:
                ref, depth = store.select_expand(t)
                seen.append(
                    (t, store.state_of(ref), store.terminal_of(ref), depth)
                )
                store.apply_virtual_loss(ref, step["vloss"])
                walks.append(ref)
            for ref, lost, *row in zip(walks, step["lost"], *outcome):
                store.revert_virtual_loss(ref, step["vloss"])
                if not lost:
                    store.backprop(ref, step["sims"], *row)
            continue
        trees = step["trees"]
        if trees is not None and r % 2:
            trees = np.array(trees)  # lists and arrays both
        if step["sims"] == 1:
            refs, depths = selected_round(store, trees)
        else:
            refs, depths = store.select_expand_all(trees)
            refs, depths = list(refs), list(depths)
        trees = range(store.n_trees) if trees is None else trees
        for t, ref, depth in zip(trees, refs, depths):
            seen.append(
                (int(t), store.state_of(ref), store.terminal_of(ref), depth)
            )
            if step["vloss"]:
                store.apply_virtual_loss(ref, step["vloss"])
                held.append((r + 1 + step["hold"], ref, step["vloss"]))
        if step["sims"] == 1:
            # One playout per tree: black - white is its winner.
            kept = [i for i, lost in enumerate(step["lost"]) if not lost]
            store.backprop_winners(
                [refs[i] for i in kept],
                [step["black"][i] - step["white"][i] for i in kept],
            )
            continue
        refs = [None if lost else ref for ref, lost in zip(refs, step["lost"])]
        backprop_rows(store, refs, step["sims"], *outcome)
    return seen


# -- comparisons -------------------------------------------------------------


def assert_same_tree(arena: TreeArena, t: int, tree: SearchTree) -> None:
    """Tree ``t`` of the arena and the pointer tree hold the same
    nodes, children in the same order, with the same numbers."""
    pairs = [(int(arena.roots[t]), tree.root)]
    count = 0
    while pairs:
        slot, node = pairs.pop()
        count += 1
        assert arena.state_of(slot) == node.state
        assert arena.visits[slot] == node.visits
        assert arena.wins[slot] == node.wins  # IEEE-exact
        assert arena.vloss[slot] == node.vloss
        left = int(arena.untried_count[slot])
        assert arena.untried_order[slot, :left].tolist() == node.untried
        filled = int(arena.child_count[slot])
        assert filled == len(node.children)
        start = int(arena.child_start[slot])
        pairs.extend(zip(range(start, start + filled), node.children))
    assert count == tree.node_count == arena.tree_node_count[t]
    assert tree.max_depth == arena.tree_max_depth[t]


def check_plan(
    game_name, root_plies, n_trees, plan_seed, iterations, tree_seed, policy
):
    game = make_game(game_name)
    root = walk(game, root_plies, plan_seed)
    plan = make_plan(plan_seed, n_trees, iterations)
    kernel = arena_under_test(game, root, n_trees, tree_seed, **policy)
    assert kernel._compiled() is not None
    seen = replay(kernel, plan)
    with python_bodies():
        python = arena_under_test(game, root, n_trees, tree_seed, **policy)
        assert python._compiled() is None
        assert replay(python, plan) == seen
    assert kernel.allocated == python.allocated
    assert columns(kernel) == columns(python)
    assert payload(kernel) == payload(python)
    kernel.validate()
    pointer = pointer_trees(game, root, n_trees, tree_seed, **policy)
    assert replay(pointer, plan) == seen
    for t, tree in enumerate(pointer.trees):
        assert_same_tree(kernel, t, tree)
    return kernel, seen


POLICIES = st.fixed_dictionaries(
    {
        "ucb_c": st.sampled_from([0.0, 0.35, 1.0, 1.4142135623730951]),
        "selection_rule": st.sampled_from(["ucb1", "ucb1_tuned"]),
        "parallel_mode": st.sampled_from(["vloss", "wuct"]),
    }
)


@settings(max_examples=200, deadline=None)
@given(
    game_name=st.sampled_from(GAMES),
    root_plies=st.integers(0, 60),  # openings to the last few plies
    n_trees=st.sampled_from([1, 2, 8, 97]),
    plan_seed=st.integers(0, 2**32 - 1),
    iterations=st.integers(0, 400),
    tree_seed=st.integers(1, 2**32),
    policy=POLICIES,
)
def test_kernel_python_body_and_pointer_trees_agree(
    game_name, root_plies, n_trees, plan_seed, iterations, tree_seed, policy
):
    check_plan(
        game_name, root_plies, n_trees, plan_seed, iterations, tree_seed,
        policy,
    )


@pytest.mark.parametrize("game_name", GAMES)
@pytest.mark.parametrize("mode", ["vloss", "wuct"])
@pytest.mark.parametrize("rule", ["ucb1", "ucb1_tuned"])
def test_long_searches_reach_every_branch(game_name, mode, rule):
    """Fixed seeds, long enough that terminal leaves, score ties,
    mixed expansion depths in one round, held virtual loss under both
    modes and several column growths all occur (asserted, not hoped)."""
    policy = {"ucb_c": 0.9, "selection_rule": rule, "parallel_mode": mode}
    plies = {"tictactoe": 2, "connect4": 24, "reversi": 57}[game_name]
    # Plan 9 ends on a lockstep round that leaves 0.25 on every path.
    arena, _ = check_plan(game_name, plies, 5, 9, 1500, 23, policy)
    n = arena.allocated
    assert arena.capacity >= 32  # grew from capacity=2 several times
    assert arena.vloss[:n].any()
    assert arena.tree_max_depth.min() >= 3
    assert arena.terminal[:n].any()


# -- rounds that carry terminal leaves ---------------------------------------

#: ``(game, plies, seed)`` of ``walk``s that stop two to four plies
#: from the end: every tree is expanded to its terminal nodes within a
#: few rounds, and from then on a round's leaves are terminal.
ENDGAMES = [("tictactoe", 7, 0), ("connect4", 40, 40), ("connect4", 40, 59)]


@pytest.mark.parametrize("game_name, plies, seed", ENDGAMES)
@pytest.mark.parametrize("n_trees", [1, 2, 8, 97])
@pytest.mark.parametrize("mode", ["vloss", "wuct"])
@pytest.mark.parametrize("rule", ["ucb1", "ucb1_tuned"])
def test_rounds_from_the_last_plies_carry_terminal_leaves(
    game_name, plies, seed, n_trees, mode, rule
):
    game = make_game(game_name)
    cells = {"tictactoe": 9, "connect4": 42}[game_name]
    planes = game.zobrist_planes(walk(game, plies, seed))
    assert cells - sum(bin(plane).count("1") for plane in planes) in (2, 4)
    policy = {"ucb_c": 0.9, "selection_rule": rule, "parallel_mode": mode}
    arena, seen = check_plan(
        game_name, plies, n_trees, seed, 12 * n_trees + 20, 23, policy
    )
    over = [terminal for _, _, terminal, _ in seen]
    assert any(over) and not all(over)
    assert arena.capacity > 2


@pytest.mark.parametrize("game_name, plies, seed", ENDGAMES)
def test_root_search_from_the_last_plies_is_one_search_on_every_store(
    game_name, plies, seed
):
    """``root:8`` resolves terminal leaves itself and sends the rest
    out for playouts: the same search whichever store holds its trees."""
    game = make_game(game_name)
    root = walk(game, plies, seed)

    def search(spec):
        return make_engine(spec, game, 2011).search(root, 2e-3)

    kernel = search("root:8@arena")
    with python_bodies():
        python = search("root:8@arena")
    assert kernel.iterations > 8 * 40
    assert python == kernel
    assert search("root:8") == kernel


# -- winners a corrupted launch delivers -------------------------------------

#: What ``apply_answer_corruption``'s ``bitflip`` / ``nan`` modes turn a
#: winner into, beside the three real ones.
WINNERS = [-1, 0, 1, 2, -65, float("nan")]


@pytest.mark.parametrize("game_name", GAMES)
def test_a_winner_outside_the_domain_is_a_visit_and_no_win(game_name):
    """An undefended run backpropagates whatever the launch handed
    back: all three stores credit it alike and none raises."""
    game = make_game(game_name)
    root = game.initial_state()
    kernel = arena_under_test(game, root, 6, 31)
    with python_bodies():
        python = arena_under_test(game, root, 6, 31)
    pointer = pointer_trees(game, root, 6, 31)
    rng = np.random.default_rng(5)
    wins = 0.0
    for r in range(40):
        winners = [WINNERS[i] for i in rng.integers(0, len(WINNERS), size=6)]
        if r == 0:
            winners = WINNERS[:]  # each of them at least once
        wins += sum(w == game.to_move(root) for w in winners)
        wins += 0.5 * sum(w == 0 for w in winners)
        for store in (kernel, python, pointer):
            refs, *_ = store.select_round()
            store.backprop_winners(refs, winners)
    assert columns(kernel) == columns(python)
    assert payload(kernel) == payload(python)
    for t, tree in enumerate(pointer.trees):
        assert_same_tree(kernel, t, tree)
    # Every answer was a visit; only the real winners were wins.
    roots = kernel.roots
    assert kernel.visits[roots].tolist() == [40.0] * 6
    depth_one = kernel.parent[: kernel.allocated] >= 0
    depth_one &= np.isin(kernel.parent[: kernel.allocated], roots)
    assert kernel.wins[: kernel.allocated][depth_one].sum() == wins


# -- the score on arbitrary statistics ---------------------------------------

CHILD_STATS = st.tuples(
    st.sampled_from([0.0, 1.0, 2.0, 3.0, 50.0, 1000.0, 1e6]),  # completed
    st.sampled_from([0.0, 0.25, 1.0, 3.0]),  # in flight
    st.sampled_from([0.0, 0.05, 0.5, 0.95, 1.0]),  # wins / completed
)


@settings(max_examples=300, deadline=None)
@example(
    # The tuned rule's clip decides: child 0's variance bound is 0.18,
    # so it scores 1.33 and loses to child 1's 1.35 -- with the width
    # left at 1/4 it would score 1.41 and win.
    children=[(1000.0, 0.0, 0.95), (287.0, 0.0, 0.5)] + [(1e6, 0.0, 0.0)] * 7,
    total=4000.0,
    policy={
        "ucb_c": 10.0, "selection_rule": "ucb1_tuned", "parallel_mode": "vloss"
    },
)
@given(
    children=st.lists(CHILD_STATS, min_size=9, max_size=9),
    total=st.sampled_from([0.25, 1.0, 1.5, 7.0, 4000.0, 1e7]),
    policy=POLICIES,
)
def test_one_level_choice_matches_python_body_on_any_statistics(
    children, total, policy
):
    """Statistics no short search reaches -- totals at and below 1
    (the logarithm is cut to 0 there), thousands of visits (the tuned
    rule's variance bound drops under 1/4), exact ties, unvisited
    children behind visited ones: the kernel descends into the child
    ``_best_child`` names."""
    game = make_game("tictactoe")
    arena = TreeArena(game, game.initial_state(), [XorShift64Star(3)], **policy)
    for _ in range(9):  # expand every root child
        arena.backprop_winner(arena.select_expand(0)[0], 0)
    root = int(arena.roots[0])
    start = int(arena.child_start[root])
    assert arena.untried_count[root] == 0 and arena.child_count[root] == 9
    arena.visits[root], arena.vloss[root] = total, 0.0
    for child, (completed, in_flight, rate) in enumerate(children, start):
        arena.visits[child] = completed
        arena.vloss[child] = in_flight
        arena.wins[child] = rate * completed
    chosen = arena._best_child(root)
    leaf, depth = arena.select_expand(0)
    assert (int(arena.parent[leaf]), depth) == (chosen, 2)


# -- refusals ----------------------------------------------------------------


def searched(game_name="tictactoe", n_trees=3, rounds=40) -> TreeArena:
    game = make_game(game_name)
    arena = TreeArena(
        game,
        game.initial_state(),
        [XorShift64Star(5 + t) for t in range(n_trees)],
    )
    trees = np.arange(n_trees)
    for r in range(rounds):
        leaves, depths = arena.select_expand_all()
        winners = (trees + r + depths) % 3 - 1
        arena.backprop_many(
            leaves, 1, winners == 1, winners == -1, winners == 0
        )
    return arena


def call_buffers(cols) -> list:
    """Every per-call row: the arguments and ``_ROUND_ROWS``."""
    names = ["trees", "leaves", "depths", "stats", "winners"]
    names += [name for name, _ in cols._ROUND_ROWS]
    return [getattr(cols, name).tolist() for name in names]


@pytest.mark.parametrize("game_name", GAMES)
def test_rows_outside_the_arena_are_refused_with_nothing_written(game_name):
    """A tree, root, child span or bookkeeping row that does not lie
    inside the allocation makes the round fail before the first write:
    a read-only descent is all that has happened."""
    # After 40 rounds every descent crosses tree 1's root; after one,
    # the root is where it stops, its child span already reserved.
    for rounds, name, row, value in [
        (40, "trees", 0, 3),
        (40, "trees", 2, -1),
        (40, "trees", 2, 0),  # a tree twice: its span would overrun
        (40, "trees", 0, 1),
        (40, "roots", 1, "n"),
        (40, "roots", 1, -1),
        (40, "child_start", "root", 0),  # a span below its parent...
        (40, "child_start", "root", "root"),  # ...at it...
        (40, "child_start", "root", "n"),  # ...past the allocation
        (40, "child_count", "root", "n"),
        (40, "child_count", "root", 0),
        (1, "child_start", "root", "root"),
        (1, "child_start", "root", "n"),
        (1, "child_start", "root", "n - 1"),  # the span's end overruns
        (1, "n_legal", "root", 70),  # filled + untried != width
        (1, "child_count", "root", -1),
        (0, "child_count", "root", 1),  # filled, but no span
    ]:
        arena = searched(game_name, rounds=rounds)
        names = {"root": int(arena.roots[1]), "n": arena.allocated}
        row = names.get(row, row)
        value = eval(value, names) if isinstance(value, str) else value
        cols = arena._compiled()
        cols.trees[:3] = [0, 1, 2]
        cols.leaves[:] = cols.depths[:] = -7
        cols.leaf_plane1[:] = cols.leaf_to_move[:] = 7
        target = cols.trees if name == "trees" else getattr(arena, name)
        target[row] = value
        before = columns(arena), call_buffers(cols)
        cols.allocated = arena.allocated
        with pytest.raises(ValueError, match="outside the arena"):
            select_expand_compiled(cols, 3)
        assert cols.allocated == arena.allocated
        after = columns(arena), call_buffers(cols)
        assert after[0] == before[0], (rounds, name, row, value)
        if name == "trees":
            # Refused before any descent: no answer was written either.
            assert after[1] == before[1]


def test_more_rows_than_call_buffers_are_refused():
    arena = searched()
    cols = arena._compiled()
    before = columns(arena), call_buffers(cols)
    cols.allocated = arena.allocated
    for k in (4, -1, 1 << 40):
        with pytest.raises(ValueError, match="do not fit"):
            select_expand_compiled(cols, k)
        with pytest.raises(ValueError, match="do not fit"):
            backprop_compiled(cols, k, 1.0)
        with pytest.raises(ValueError, match="do not fit"):
            backprop_winners_compiled(cols, k)
    assert (columns(arena), call_buffers(cols)) == before
    with pytest.raises(ValueError, match="distinct trees"):
        arena.select_expand_all([0, 1, 2, 0])
    with pytest.raises(ValueError, match="distinct trees"):
        arena.select_round([0, 1, 2, 0])
    with pytest.raises(ValueError, match="one leaf per tree"):
        arena.backprop_many([3, 4, 5, 6], 1, [1] * 4, [0] * 4, [0] * 4)
    with pytest.raises(ValueError, match="one leaf per tree"):
        arena.backprop_winners([3, 4, 5, 6], [1] * 4)
    with pytest.raises(ValueError, match="2 winners for 3 leaves"):
        arena.backprop_winners([3, 4, 5], [1, 0])
    assert (columns(arena), call_buffers(cols)) == before


@pytest.mark.parametrize("game_name", GAMES)
def test_a_full_arena_reports_its_need_and_changes_nothing(game_name):
    """The grow-and-retry protocol: a round whose fresh spans do not
    fit returns the capacity it needs, the arena is exactly as it was,
    and the same call succeeds after growing to that capacity."""
    game = make_game(game_name)
    arena = TreeArena(
        game, game.initial_state(), [XorShift64Star(9), XorShift64Star(10)]
    )
    arena.compact()  # capacity == allocated == 2: no room for any span
    assert arena.capacity == arena.allocated == 2
    cols = arena._compiled()
    cols.trees[:2] = [1, 0]
    cols.allocated = 2
    before = columns(arena)
    need = select_expand_compiled(cols, 2)
    assert need == 2 + 2 * arena.n_legal[0]
    assert cols.allocated == 2 and columns(arena) == before
    arena._grow(need)
    assert arena.capacity == need  # more than double: the need wins
    cols = arena._compiled()
    cols.trees[:2] = [1, 0]
    cols.allocated = 2
    assert select_expand_compiled(cols, 2) == 0
    assert cols.allocated == need
    # Spans in row order: tree 1's first.
    assert cols.leaves[:2].tolist() == [2, 2 + arena.n_legal[0]]
    assert cols.depths[:2].tolist() == [1, 1]


def test_backprop_refuses_leaves_outside_the_allocation():
    """Both backprop entries share the checks and the parent walk."""
    for backprop in (
        lambda cols, k: backprop_compiled(cols, k, 1.0),
        backprop_winners_compiled,
    ):
        arena = searched()
        cols = arena._compiled()
        n = arena.allocated
        cols.allocated = n
        cols.stats[:] = cols.winners[:] = 1.0
        for leaves in ([3, n, 4], [n + 5, -1, -1]):
            cols.leaves[:3] = leaves
            before = columns(arena)
            with pytest.raises(ValueError, match="outside the arena"):
                backprop(cols, 3)
            assert columns(arena) == before
        # A parent link that does not point below its child stops the
        # walk.
        leaf = int(arena.child_start[int(arena.roots[0])])
        arena.parent[leaf] = leaf
        cols.leaves[:3] = [leaf, -1, -1]
        with pytest.raises(ValueError, match="outside the arena"):
            backprop(cols, 3)


def test_negative_leaves_are_rows_with_no_answer():
    arena = searched()
    before = columns(arena)
    arena.backprop_many([-1, -1, -1], 4, [1, 1, 1], [2, 2, 2], [1, 1, 1])
    arena.backprop_winners([-1, -1, -1], [1, 0, -1])
    assert columns(arena) == before


# -- the logarithm -----------------------------------------------------------


def test_libm_log_is_math_log():
    """The kernels call libm's ``log`` where the Python body calls
    ``math.log``; the scores agree bit for bit only if those are the
    same function.  Whole visit totals (what every engine produces) and
    fractional ones (virtual loss) both."""
    log = load_library().repro_log
    rng = np.random.default_rng(2011)
    x = np.concatenate(
        [
            np.arange(2, 20000, dtype=np.float64),
            rng.integers(2, 2**40, size=20000).astype(np.float64),
            rng.random(20000) * 1e6 + 1.0,
            np.arange(2, 4000, dtype=np.float64) + 0.25,
        ]
    )
    out = np.empty_like(x)
    log(len(x), x.ctypes.data, out.ctypes.data)
    assert out.tolist() == [math.log(v) for v in x.tolist()]
