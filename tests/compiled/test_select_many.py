"""Differential wall for the many-arena tree kernels
(``repro_<game>_select_expand_many`` behind
:func:`repro.core.arena.select_round_many`, and
``repro_backprop_winners_many`` behind
:func:`repro.core.arena.backprop_winners_many`).

One call walks the rounds of many arenas -- the service tick's
tenants.  Row for row it must hand back what each arena's own
``select_round`` hands back, and leave every arena exactly as that
round leaves it: node ids, columns, RNG words.  A tenant that runs out
of room mid-call reports its need with itself and every later tenant
untouched, and the call resumes from it once it has grown; rows that
are not distinct trees of their arena -- within a tenant, or across
two tenants holding the same arena -- are refused before anything is
written.  One credit call must add exactly what ``backprop_winner``
adds row by row -- several rows on one tree and winners outside
{1, -1, 0} included -- and refuses a missing arena or a leaf outside
its allocation with nothing written.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compiled import (
    COMPILED_GAMES,
    TenantRows,
    backprop_winners_many_compiled,
    compiled_available,
    select_expand_many_compiled,
)
from repro.core.arena import (
    MANY_SELECT_MIN,
    TreeArena,
    backprop_winners_many,
    select_round_many,
)
from repro.core.backend import NodeForest
from repro.core.tree import SearchTree
from repro.games import make_game
from repro.rng import XorShift64Star
from tests.compiled.test_select import walk
from tests.core.test_arena import columns

pytestmark = pytest.mark.compiled

GAMES = sorted(COMPILED_GAMES)

if not compiled_available():
    pytest.skip(
        "no compiled kernel library on this host", allow_module_level=True
    )


def twins(game, n_trees, seed, capacity, mode, plies=0):
    """Two identical arenas: one for the many-arena call, one for its
    own rounds.  A small ``capacity`` makes rounds grow the columns;
    a root ``plies`` into a random game brings terminal leaves."""
    root = walk(game, plies, seed)
    return [
        TreeArena(
            game,
            root,
            [XorShift64Star(seed + t) for t in range(n_trees)],
            capacity=capacity,
            parallel_mode=mode,
        )
        for _ in range(2)
    ]


@st.composite
def tenant_mixes(draw):
    game = make_game(draw(st.sampled_from(GAMES)))
    tenants = [
        dict(
            n_trees=draw(st.integers(1, 5)),
            seed=draw(st.integers(1, 2**20)),
            capacity=draw(st.sampled_from((2, 16, 256))),
            mode=draw(st.sampled_from(("vloss", "wuct"))),
            plies=draw(st.sampled_from((0, 0, 30, 60))),
        )
        # At least MANY_SELECT_MIN: fewer take their own rounds.
        for _ in range(draw(st.integers(MANY_SELECT_MIN, 8)))
    ]
    plan_seed = draw(st.integers(0, 2**32 - 1))
    rounds = draw(st.integers(1, 12))
    return game, tenants, plan_seed, rounds


@settings(max_examples=60, deadline=None)
@given(tenant_mixes())
def test_many_arenas_match_their_own_rounds_row_for_row(mix):
    game, tenants, plan_seed, rounds = mix
    pairs = [twins(game, **tenant) for tenant in tenants]
    many = [pair[0] for pair in pairs]
    own = [pair[1] for pair in pairs]
    rng = np.random.default_rng(plan_seed)
    for _ in range(rounds):
        # Each tenant: a shuffled, non-empty subset of its trees.
        indices = [
            rng.permutation(arena.n_trees)[
                : rng.integers(1, arena.n_trees + 1)
            ].tolist()
            for arena in many
        ]
        if rng.random() < 0.3:
            # The same call with one tree repeated: refused, nothing
            # written, whichever tenant holds the repeat.
            bad = [list(ix) for ix in indices]
            j = int(rng.integers(len(bad)))
            bad[j].append(bad[j][int(rng.integers(len(bad[j])))])
            before = [columns(a) for a in many]
            with pytest.raises(ValueError, match="distinct trees"):
                select_round_many(many, bad)
            assert [columns(a) for a in many] == before
        got = select_round_many(many, indices)
        want = [a.select_round(ix) for a, ix in zip(own, indices)]
        assert got == want
        for a, b in zip(many, own):
            assert a.allocated == b.allocated
            assert columns(a) == columns(b)
        # Answer every row -- some twice, some with a winner outside
        # {1, -1, 0} -- in one credit call on one side and row by row
        # on the other; a marker left on one tenant tells a wrong row
        # apart too.
        leaves, winners = [], []
        for arena, (refs, _, _, _) in zip(own, want):
            rows = refs + refs[: rng.integers(0, len(refs) + 1)]
            outcomes = rng.choice([1, -1, 0, 2, np.nan], len(rows)).tolist()
            for leaf, winner in zip(rows, outcomes):
                arena.backprop_winner(leaf, winner)
            leaves.append(rows)
            winners.append(outcomes)
        backprop_winners_many(many, leaves, winners)
        for a, b, rows in zip(many, own, leaves):
            assert columns(a) == columns(b)
            for arena in (a, b):
                arena.apply_virtual_loss(rows[0], 0.5)


@pytest.mark.parametrize("game_name", GAMES)
def test_a_tenant_that_must_grow_stops_the_call_untouched(game_name):
    """Tenant 1's columns are full: the kernel reports what it needs
    with tenant 0 done and tenants 1 and 2 exactly as they were; grown,
    the call resumes from tenant 1 and every answer matches."""
    game = make_game(game_name)
    pairs = [twins(game, 2, 11 + 7 * j, 256, "vloss") for j in range(3)]
    for pair in pairs:
        for arena in pair:
            arena.compact()
    # Room for tenants 0 and 2, none for tenant 1.
    pairs[0][0]._grow(64)
    pairs[2][0]._grow(64)
    many = [pair[0] for pair in pairs]
    indices = [[1, 0], [0, 1], [1]]
    rows = TenantRows()
    rows.reserve(3, 5)
    rows.trees[:5] = [1, 0, 0, 1, 1]
    rows.bounds[:4] = [0, 2, 4, 5]
    columns_before = [columns(a) for a in many]
    for j, arena in enumerate(many):
        cols = arena._compiled()
        cols.allocated = arena.allocated
        rows.arenas[j] = cols._at
    kernel = many[0]._compiled().select_expand_many
    need, at = select_expand_many_compiled(kernel, rows, 0, 3)
    assert at == 1
    assert need == 2 + 2 * many[1].n_legal[0]
    assert many[0]._compiled().allocated > many[0].allocated
    assert columns(many[1]) == columns_before[1]
    assert columns(many[2]) == columns_before[2]
    assert many[1]._compiled().allocated == many[1].allocated
    assert many[2]._compiled().allocated == many[2].allocated

    # The arena-level call grows tenant 1 and resumes from it.
    pairs = [twins(game, 2, 11 + 7 * j, 256, "vloss") for j in range(3)]
    for pair in pairs:
        for arena in pair:
            arena.compact()
    pairs[0][0]._grow(64)
    pairs[2][0]._grow(64)
    many = [pair[0] for pair in pairs]
    got = select_round_many(many, indices)
    want = [pair[1].select_round(ix) for pair, ix in zip(pairs, indices)]
    assert got == want
    for pair in pairs:
        assert columns(pair[0]) == columns(pair[1])


def test_a_repeated_tree_is_refused_with_nothing_written():
    game = make_game("tictactoe")
    arenas = [twins(game, 3, 5 + j, 256, "vloss")[0] for j in range(3)]
    for arena in arenas:
        arena.select_round([0, 1, 2])
    before = [columns(a) for a in arenas]
    for stores, indices in [
        (arenas, [[0, 1], [2, 2], [0]]),  # within one tenant
        (arenas, [[0], [1], [3]]),  # a tree the arena does not hold
        (arenas, [[0], [1], [-1]]),
        ([arenas[0], arenas[1], arenas[0]], [[0, 1], [2], [1]]),  # across
    ]:
        with pytest.raises(ValueError, match="distinct trees"):
            select_round_many(stores, indices)
        assert [columns(a) for a in arenas] == before


def test_other_stores_run_their_own_rounds():
    """Pointer forests and the arenas of a game with fewer than
    ``MANY_SELECT_MIN`` take their own ``select_round``, in the same
    answer list."""
    game = make_game("connect4")
    forest = NodeForest(
        [SearchTree(game, game.initial_state(), XorShift64Star(3))]
    )
    twin = NodeForest(
        [SearchTree(game, game.initial_state(), XorShift64Star(3))]
    )
    pair_a = twins(game, 2, 8, 256, "vloss")
    pair_b = twins(make_game("tictactoe"), 2, 8, 256, "vloss")
    got = select_round_many(
        [forest, pair_a[0], pair_b[0]], [[0], [1, 0], [0]]
    )
    want = [
        twin.select_round([0]),
        pair_a[1].select_round([1, 0]),
        pair_b[1].select_round([0]),
    ]
    assert got[1:] == want[1:]
    assert got[0][1:] == want[0][1:]  # pointer refs are per-tree objects


def test_a_bad_credit_row_is_refused_with_nothing_written():
    game = make_game("connect4")
    arenas = [twins(game, 2, 21 + j, 256, "vloss")[0] for j in range(3)]
    leaves = [arena.select_round([0, 1])[0] for arena in arenas]
    before = [columns(a) for a in arenas]
    for bad in (arenas[2].allocated, 1 << 40):
        rows = [list(r) for r in leaves]
        rows[2][1] = bad
        with pytest.raises(ValueError, match="outside the arena"):
            backprop_winners_many(arenas, rows, [[1, 0]] * 3)
        assert [columns(a) for a in arenas] == before
    rows = TenantRows()
    rows.reserve(2, 2)
    rows.leaves[:2] = leaves[0]
    rows.bounds[:3] = [0, 1, 2]
    cols = arenas[0]._compiled()
    cols.allocated = arenas[0].allocated
    rows.arenas[:2] = [cols._at, 0]  # tenant 1 has no arena
    with pytest.raises(ValueError, match="outside the arena"):
        backprop_winners_many_compiled(rows, 2)
    assert rows.at.item(0) == 1
    assert [columns(a) for a in arenas] == before


def test_terminal_and_open_leaves_keep_their_own_rows():
    """A few plies before the end of TicTacToe, terminal and open
    leaves mix in one call: every row keeps its own leaf and flag."""
    game = make_game("tictactoe")
    pairs = [twins(game, 3, 40 + j, 256, "vloss", plies=5) for j in range(4)]
    seen = set()
    for r in range(12):
        indices = [[0, 1, 2], [2, 0], [1], [0, 2, 1]]
        got = select_round_many([pair[0] for pair in pairs], indices)
        want = [pair[1].select_round(ix) for pair, ix in zip(pairs, indices)]
        assert got == want
        for pair, (refs, _, _, terminal) in zip(pairs, want):
            seen.update(terminal)
            winners = [(r + i) % 3 - 1 for i in range(len(refs))]
            for arena in pair:
                arena.backprop_winners(refs, winners)
    assert seen == {True, False}


#: The batched tick gate's tenants (``tests/gates/test_micro.py``,
#: ``test_micro_tenant_forest_tick_batched``): ``TICK_TENANTS``
#: ``root:8`` arenas of each game, from the opening.
TICK_TENANTS = 50


@pytest.mark.skipif(not compiled_available(), reason="no compiled library")
def test_the_batched_tick_makes_one_kernel_call_per_game_and_sub_round(
    monkeypatch,
):
    """The structural half of the batched tick gate, counted: over 150
    ``root:8`` tenants of three games, each sub-round is one
    ``*_select_expand_many`` call per game -- and one more from each
    tenant that had to grow, resuming the call from it -- and one
    ``repro_backprop_winners_many`` call, where the per-tenant loop
    makes a ``select_round`` and a ``backprop_winners`` per tenant; no
    tenant runs a round of its own."""
    from repro.core import arena as arena_module

    calls = {"select": 0, "credit": 0, "grow": 0, "own": 0}

    def counting(key, fn):
        def counted(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)

        return counted

    monkeypatch.setattr(
        arena_module,
        "select_expand_many_compiled",
        counting("select", select_expand_many_compiled),
    )
    monkeypatch.setattr(
        arena_module,
        "backprop_winners_many_compiled",
        counting("credit", backprop_winners_many_compiled),
    )
    monkeypatch.setattr(
        TreeArena, "_grow", counting("grow", TreeArena._grow)
    )
    for method in ("select_round", "backprop_winner", "backprop_winners"):
        monkeypatch.setattr(
            TreeArena, method, counting("own", getattr(TreeArena, method))
        )
    games = ["reversi", "connect4", "tictactoe"]
    forests = [
        TreeArena(
            game,
            game.initial_state(),
            [XorShift64Star(1 + 8 * j + t) for t in range(8)],
            1.0,
        )
        for game in map(make_game, games)
        for j in range(TICK_TENANTS)
    ]
    trees = list(range(8))
    for r in range(30):
        before = dict(calls)
        answers = select_round_many(forests, [trees] * len(forests))
        backprop_winners_many(
            forests,
            [refs for refs, *_ in answers],
            [[(r + t) % 3 - 1 for t in trees]] * len(forests),
        )
        grown = calls["grow"] - before["grow"]
        assert calls["select"] - before["select"] == len(games) + grown
        assert calls["credit"] - before["credit"] == 1
    assert calls["own"] == 0
    assert 0 < calls["grow"] < calls["select"]
