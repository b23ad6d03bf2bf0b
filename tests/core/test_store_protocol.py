"""The tree-store protocol, once, for both backends.

Every engine keeps its trees in a *store* built by ``make_forest`` /
``make_tree``: a :class:`TreeArena`, which implements the protocol
itself, or a :class:`NodeForest` of pointer trees, the reference.  A
single tree is a forest of one.  This file holds

* conformance: both classes expose every protocol name with the same
  parameters (``inspect.signature``), and every method driven through
  ``make_forest`` gives the same answers on both backends;
* forest-of-one: ``make_tree`` and ``make_forest(..., [rng])`` are the
  same store, down to the checkpoint payload (up to its ``kind``);
* the refusals of a round on both backends and both arena bodies (run
  under ``REPRO_COMPILED=0`` too by the ``compiled`` job): a repeated or
  out-of-range tree index, answers that do not match the round's
  requests one for one, and ``positions_of`` a ref that holds no
  position.
"""

import inspect

import numpy as np
import pytest

from repro.core.arena import TreeArena
from repro.core.backend import (
    BACKENDS,
    NodeForest,
    make_forest,
    make_tree,
    restore_forest,
    restore_tree,
    snapshot_forest,
)
from repro.games import TicTacToe
from repro.games.batch import Positions
from repro.rng import XorShift64Star
from tests.core.test_arena import columns, drive, payload
from tests.core.test_checkpoint_golden import canonical

GAME = TicTacToe()

PROTOCOL_METHODS = (
    # tree-addressed (the index defaults to tree 0)
    "select_expand",
    "root_stats",
    "poison_root",
    "audit_tree",
    "ref_token",
    "ref_from_token",
    # ref-addressed (the ref and nothing else)
    "backprop",
    "backprop_winner",
    "apply_virtual_loss",
    "revert_virtual_loss",
    "state_of",
    "terminal_of",
    "winner_of",
    # the launch-shaped sibling of ``state_of``: many refs, one value
    "positions_of",
    # rounds over the forest
    "select_round",
    "select_expand_all",
    "backprop_winners",
    "backprop_block",
    "root_stats_of",
    "per_tree_nodes",
    "per_tree_depth",
    # the session's end: the arena goes back to the free list
    "release",
)
PROTOCOL_ATTRIBUTES = ("n_trees", "node_count", "max_depth")


def forest(backend: str, n_trees: int, seed: int = 7):
    return make_forest(
        backend,
        GAME,
        GAME.initial_state(),
        [XorShift64Star(seed + t) for t in range(n_trees)],
    )


@pytest.mark.parametrize("name", PROTOCOL_METHODS)
def test_both_stores_spell_the_protocol_alike(name):
    """Same parameter names, order, kinds and defaults -- nothing but
    this keeps the reference adapter from drifting."""

    def shape(cls):
        params = inspect.signature(getattr(cls, name)).parameters.values()
        return [(p.name, p.kind, p.default) for p in params]

    assert shape(NodeForest) == shape(TreeArena)


def drive_everything(store, n_trees: int) -> list:
    """Call every protocol method; returns what was observed, free of
    refs, so two backends can be compared with ``==``."""
    seen = []
    last = n_trees - 1
    assert store.n_trees == n_trees

    # One tree at a time: the index defaults to tree 0.
    ref, depth = store.select_expand()
    assert depth == 1 and not store.terminal_of(ref)
    assert store.winner_of(ref) == 0
    seen.append(store.state_of(ref))
    store.backprop_winner(ref, 1)
    assert sum(v for v, _ in store.root_stats().values()) == 1
    ref, depth = store.select_expand(last)
    seen.append(store.state_of(ref))
    store.backprop(ref, 4, 2, 1, 1)
    assert sum(v for v, _ in store.root_stats(last).values()) == (
        5 if n_trees == 1 else 4
    )

    # Virtual loss goes on and comes off without touching statistics.
    before = store.root_stats_of()
    store.apply_virtual_loss(ref, 2.5)
    store.apply_virtual_loss(ref)
    store.revert_virtual_loss(ref)
    store.revert_virtual_loss(ref, 2.5)
    assert store.root_stats_of() == before

    # Refs survive as tokens (what the pipeline engine checkpoints).
    token = store.ref_token(ref, last)
    assert isinstance(token, int)
    back = store.ref_from_token(token, last)
    assert store.state_of(back) == store.state_of(ref)
    if n_trees == 1:
        assert store.ref_from_token(store.ref_token(ref)) == back

    # Rounds: every tree, a subset, per-tree tallies.
    for r in range(12):
        refs, depths, states, terminal = store.select_round()
        for column in (refs, depths, states, terminal):
            assert type(column) is list and len(column) == n_trees
        assert {type(d) for d in depths} == {int}
        assert {type(over) for over in terminal} == {bool}
        assert states == [store.state_of(ref) for ref in refs]
        assert terminal == [store.terminal_of(ref) for ref in refs]
        seen += [states, depths, terminal]
        store.backprop_winners(
            refs, [(r + t) % 3 - 1 for t in range(n_trees)]
        )
        refs, depths, states, _ = store.select_round([last])
        assert states == [store.state_of(refs[0])]
        seen += [states, depths]
        store.backprop_winners(refs, (float("nan"),))  # a visit, no win
        refs, depths = store.select_expand_all()
        assert len(refs) == len(depths) == n_trees
        positions = store.positions_of(refs)
        assert type(positions) is Positions and len(positions) == n_trees
        assert list(positions) == [store.state_of(ref) for ref in refs]
        assert [column.tolist() for column in positions.columns()] == [
            list(column) for column in zip(*positions)
        ]
        seen.append(list(positions))
        seen.append([int(d) for d in depths])
        store.backprop_winners(refs, [1] * n_trees)
        refs, depths = store.select_expand_all([last])
        assert len(refs) == len(depths) == 1
        assert list(store.positions_of(refs)) == [store.state_of(refs[0])]
        assert len(store.positions_of(refs[:0])) == 0
        store.backprop_winner(refs[0], 0, 3)
        refs, _ = store.select_expand_all(indices=None)
        winners = np.array(
            [
                [(r + t + lane) % 3 - 1 for lane in range(4)]
                for t in range(n_trees)
            ],
            dtype=np.int8,
        )
        store.backprop_block(refs, 4, winners)

    # Reporting: per-tree reads, and the totals as attributes.
    per_tree = store.root_stats_of()
    assert per_tree == [store.root_stats(t) for t in range(n_trees)]
    assert store.root_stats_of([last]) == [store.root_stats(last)]
    nodes, depth = store.per_tree_nodes(), store.per_tree_depth()
    assert all(type(x) is int for x in nodes + depth)
    assert len(nodes) == len(depth) == n_trees
    assert store.node_count == sum(nodes) and store.max_depth == max(depth)
    seen += [per_tree, nodes, depth]

    # Integrity surface: clean trees audit None, a poisoned one does
    # not, an index past the last tree poisons nothing.
    assert store.audit_tree() is None
    assert store.audit_tree(last, legal_moves=range(9)) is None
    assert store.poison_root(n_trees, 1000.0) is False
    assert store.poison_root(last, 1000.0) is True
    assert store.audit_tree(last) is not None
    assert (store.audit_tree() is None) == (n_trees > 1)
    seen.append(store.root_stats_of())
    return seen


@pytest.mark.parametrize("n_trees", [1, 3])
@pytest.mark.parametrize("backend", BACKENDS)
def test_every_protocol_method_through_make_forest(backend, n_trees):
    store = forest(backend, n_trees)
    assert type(store) is (TreeArena if backend == "arena" else NodeForest)
    for name in PROTOCOL_METHODS:
        assert callable(getattr(store, name))
    for name in PROTOCOL_ATTRIBUTES:
        assert type(getattr(store, name)) is int
    assert drive_everything(store, n_trees) == drive_everything(
        forest("node", n_trees), n_trees
    )
    # The session ends; the next store of this shape reopens the arena
    # (the pointer forest is left to the collector) and drives alike.
    store.release()
    again = forest(backend, n_trees)
    assert (again is store) == (backend == "arena")
    assert drive_everything(again, n_trees) == drive_everything(
        forest("node", n_trees), n_trees
    )


# -- a tree is a forest of one -----------------------------------------------


@pytest.mark.parametrize("backend", BACKENDS)
def test_make_tree_is_make_forest_with_one_rng(backend):
    root = GAME.initial_state()
    tree = make_tree(backend, GAME, root, XorShift64Star(5))
    one = make_forest(backend, GAME, root, [XorShift64Star(5)])
    assert type(tree) is type(one) and tree.n_trees == one.n_trees == 1
    drive(tree, 200, seed=5)
    drive(one, 200, seed=5)
    assert tree.root_stats() == one.root_stats() == one.root_stats_of()[0]
    assert tree.node_count == one.node_count == 201
    assert tree.max_depth == one.max_depth

    # The wrapper pair: one payload, two kinds.
    as_tree = canonical(snapshot_forest(tree, "tree"))
    as_forest = canonical(snapshot_forest(one))
    assert as_tree["kind"] == f"{backend}_tree"
    assert as_forest["kind"] == f"{backend}_forest"
    if backend == "arena":
        assert as_tree["arena"] == as_forest.pop("arena")
        assert as_forest == {"kind": "arena_forest"}
    else:
        assert as_forest == {"kind": "node_forest", "trees": [as_tree]}

    # Each restores under its own key only, to the same store.
    for restored in (
        restore_tree(GAME, snapshot_forest(tree, "tree")),
        restore_forest(GAME, snapshot_forest(one)),
    ):
        assert type(restored) is type(tree)
        assert restored.root_stats() == tree.root_stats()
        assert restored.per_tree_nodes() == [201]
        assert canonical(snapshot_forest(restored, "tree")) == as_tree
    with pytest.raises(ValueError, match="not a forest snapshot"):
        restore_forest(GAME, snapshot_forest(tree, "tree"))
    with pytest.raises(ValueError, match="not a tree snapshot"):
        restore_tree(GAME, snapshot_forest(one))


# -- select_expand_all takes distinct trees ----------------------------------


def unchanged(store, backend):
    """What a refused call must leave as it was."""
    seen = store.root_stats_of(), store.node_count, store.per_tree_depth()
    if backend == "arena":
        seen += (columns(store), payload(store))
    return seen


#: Every body that walks a round: the arena's two, and the reference
#: store (which has one).
ROUND_BODIES = [
    pytest.param("arena", "default", id="default"),
    pytest.param("arena", "python", id="python"),
    pytest.param("node", "default", id="node"),
]


@pytest.mark.parametrize("backend,body", ROUND_BODIES)
@pytest.mark.parametrize(
    "rows",
    [[0, 0], [1, 0, 1], np.array([2, 2]), [0, 3], [-1, 2], [0, 1, 2, 0], [3],
     [-1]],
    ids=str,
)
def test_repeated_tree_index_is_rejected_before_any_write(
    backend, body, rows, compiled_env
):
    """A tree walked twice in one round used to overrun its root's
    reserved span on the Python body (and commit half a round on the
    C body before noticing); the reference store used to walk it twice,
    take ``-1`` for the last tree and answer ``IndexError`` past it.
    Every body of both stores now refuses the call with the store
    unchanged (the arena byte-identical), and the search goes on."""
    if body == "python":
        compiled_env("0")
    store = forest(backend, 3)
    if body == "python" and backend == "arena":
        assert store._compiled() is None
    for r in range(6):  # tictactoe: the roots fill up in round 9
        leaves, _ = store.select_expand_all()
        store.backprop_winners(leaves, [1, 0, -1])
        before = unchanged(store, backend)
        for select in (store.select_expand_all, store.select_round):
            with pytest.raises(ValueError, match="distinct trees"):
                select(rows)
        assert unchanged(store, backend) == before
    for r in range(6):
        leaves, _ = store.select_expand_all([2, 0])
        store.backprop_winners(leaves, [1, -1])
    if backend == "arena":
        store.validate()
    assert store.per_tree_nodes() == [13, 7, 13]


# -- positions_of takes refs that hold a position ----------------------------


@pytest.mark.parametrize("body", ["default", "python"])
def test_positions_of_refuses_a_ref_that_holds_no_position(body, compiled_env):
    """Outside the allocation, negative (NumPy would wrap it to the
    arena's tail) or reserved but not yet filled: a ``ValueError``, the
    arena byte-identical."""
    if body == "python":
        compiled_env("0")
    arena = forest("arena", 3)
    leaves, _ = arena.select_expand_all()
    # The root's child span is reserved whole and filled one by one.
    reserved = int(leaves[0]) + 1
    assert reserved < arena.allocated and arena.to_move[reserved] == 0
    before = columns(arena), payload(arena)
    for refs, match in (
        ([arena.allocated], "not all slots"),
        ([0, arena.capacity + 5], "not all slots"),
        ([-1], "not all slots"),
        (np.array([0, -2**63]), "not all slots"),
        (np.array([[0, 1]]), "not all slots"),
        ([reserved], "reserved slots"),
        ([0, reserved, 1], rf"refs \[{reserved}\] are reserved"),
    ):
        with pytest.raises(ValueError, match=match):
            arena.positions_of(refs)
    assert (columns(arena), payload(arena)) == before
    roots = arena.positions_of(arena.roots)
    assert list(roots) == [GAME.initial_state()] * 3


# -- a round's answers match its requests ------------------------------------


@pytest.mark.parametrize("body", ["default", "python"])
@pytest.mark.parametrize("backend", BACKENDS)
def test_winners_must_answer_the_leaves_one_for_one(
    backend, body, compiled_env
):
    """Both stores refuse winners that do not match the leaves in
    number, changing nothing -- not one winner broadcast to every leaf
    (NumPy assignment), not the round cut short (``zip``)."""
    if body == "python":
        compiled_env("0")
    store = forest(backend, 3)
    for r in range(4):
        leaves, *_ = store.select_round()
        before = store.root_stats_of(), store.node_count
        if backend == "arena":
            before += (columns(store), payload(store))
        for winners in ([1], [], [1, 0], (1, 0, -1, 1), np.array([1, 0])):
            with pytest.raises(ValueError, match="winners for 3 leaves"):
                store.backprop_winners(leaves, winners)
        after = store.root_stats_of(), store.node_count
        if backend == "arena":
            after += (columns(store), payload(store))
        assert after == before
        store.backprop_winners(leaves, [1, 0, -1])
    assert [
        sum(visits for visits, _ in stats.values())
        for stats in store.root_stats_of()
    ] == [4, 4, 4]
