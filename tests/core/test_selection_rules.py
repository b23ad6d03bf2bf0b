"""In-tree selection is UCB1 on both backends, and a snapshot taken
under any other rule is refused on restore."""

import pytest

from repro.core import CheckpointError, restore_tree
from repro.core.backend import make_tree, snapshot_forest
from repro.games import TicTacToe
from repro.rng import XorShift64Star

GAME = TicTacToe()


@pytest.mark.parametrize("ucb_c", [0.0, 0.5, 1.4])
def test_arena_walks_like_the_pointer_tree(ucb_c):
    """The arena's descent (compiled, or the Python body under
    ``REPRO_COMPILED=0``) picks the pointer tree's child at every
    level, ties and unvisited children included."""
    root = GAME.initial_state()
    trees = [
        make_tree(backend, GAME, root, XorShift64Star(7), ucb_c)
        for backend in ("node", "arena")
    ]
    for i in range(400):
        leaves = [tree.select_expand() for tree in trees]
        (node, depth), (slot, arena_depth) = leaves
        assert (node.state, depth) == (trees[1].state_of(slot), arena_depth)
        for tree, (ref, _) in zip(trees, leaves):
            tree.backprop(ref, 3, i % 3, (i + depth) % 2, 0)
    assert trees[0].root_stats() == trees[1].root_stats()


@pytest.mark.parametrize("backend", ["node", "arena"])
def test_restore_refuses_a_snapshot_under_another_rule(backend):
    tree = make_tree(backend, GAME, GAME.initial_state(), XorShift64Star(7))
    for _ in range(20):
        node, _ = tree.select_expand()
        tree.backprop_winner(node, 1)
    snap = snapshot_forest(tree, "tree")
    policy = snap["arena"] if backend == "arena" else snap
    assert policy["selection_rule"] == "ucb1"
    assert restore_tree(GAME, snap).root_stats() == tree.root_stats()
    policy["selection_rule"] = "ucb1_tuned"
    with pytest.raises(CheckpointError, match="selection rule 'ucb1_tuned'"):
        restore_tree(GAME, snap)
