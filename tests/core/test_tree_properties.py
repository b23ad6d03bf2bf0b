"""Hypothesis property tests on search-tree invariants.

These run real (tiny) searches and then sweep the whole tree checking
the accounting identities every engine relies on.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import SequentialMcts
from repro.core.base import BatchExecutor
from repro.core.rounds import run_rounds
from repro.cpu.costmodel import FREE_CPU
from repro.games import TicTacToe
from repro.rng import XorShift64Star

GAME = TicTacToe()


def run_search(seed, iterations):
    engine = SequentialMcts(
        GAME, seed=seed, cost_model=FREE_CPU, max_iterations=iterations
    )
    engine._begin_session(GAME.initial_state(), 1e9)
    (result,) = run_rounds([engine.open_round()], BatchExecutor(GAME))
    return result


@settings(max_examples=15, deadline=None)
@given(
    st.integers(min_value=0, max_value=2**32),
    st.integers(min_value=1, max_value=120),
)
def test_root_stats_account_for_all_simulations(seed, iterations):
    result = run_search(seed, iterations)
    assert result.simulations == iterations
    # Every simulation passes through exactly one root child.
    assert result.root_visits == result.simulations


@settings(max_examples=15, deadline=None)
@given(
    st.integers(min_value=0, max_value=2**32),
    st.integers(min_value=1, max_value=120),
)
def test_wins_bounded_by_visits(seed, iterations):
    result = run_search(seed, iterations)
    for move, (visits, wins) in result.stats.items():
        assert 0 <= wins <= visits
        assert 0 <= move < GAME.num_moves


@settings(max_examples=10, deadline=None)
@given(st.integers(min_value=0, max_value=2**32))
def test_full_tree_invariants(seed):
    """Walk an actual tree object: visit monotonicity along edges and
    mover alternation."""
    from repro.core.tree import SearchTree

    rng = XorShift64Star(seed)
    playout_rng = XorShift64Star(seed ^ 0xDEAD)
    tree = SearchTree(GAME, GAME.initial_state(), rng, 1.0)
    for _ in range(150):
        node, _ = tree.select_expand()
        if node.terminal:
            tree.backprop_winner(node, node.winner)
        else:
            winner, _ = GAME.playout(node.state, playout_rng)
            tree.backprop_winner(node, winner)

    total_nodes = 0
    for node in tree.iter_nodes():
        total_nodes += 1
        assert 0 <= node.wins <= node.visits
        assert node.vloss == 0.0  # no virtual loss in this engine
        child_visit_sum = sum(c.visits for c in node.children)
        # A node's own visits include every descent through it, so they
        # are at least the sum of its children's.
        assert node.visits >= child_visit_sum
        for child in node.children:
            assert child.parent is node
            assert child.mover == node.to_move
    assert total_nodes == tree.node_count
    assert tree.root.visits == 150
