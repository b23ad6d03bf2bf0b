"""Tests for the search tree: statistics conventions are load-bearing."""

import pytest

from repro.core.backend import BACKENDS, make_tree as make_backend_tree
from repro.core.tree import Node, SearchTree, aggregate_stat_dicts
from repro.games import Reversi, TicTacToe
from repro.rng import XorShift64Star


@pytest.fixture
def ttt():
    return TicTacToe()


def make_tree(game, ucb_c=1.0, seed=1, state=None):
    return SearchTree(
        game, state or game.initial_state(), XorShift64Star(seed), ucb_c
    )


class TestConstruction:
    def test_root_has_all_moves_untried(self, ttt):
        tree = make_tree(ttt)
        assert sorted(tree.root.untried) == list(range(9))
        assert tree.node_count == 1
        assert tree.max_depth == 0

    def test_root_mover_is_opponent(self, ttt):
        tree = make_tree(ttt)
        assert tree.root.to_move == 1
        assert tree.root.mover == -1

    def test_terminal_root_rejected(self, ttt):
        s = ttt.initial_state()
        for m in (0, 3, 1, 4, 2):  # X wins the top row
            s = ttt.apply(s, m)
        with pytest.raises(ValueError, match="terminal"):
            make_tree(ttt, state=s)

    def test_negative_ucb_c_rejected(self, ttt):
        with pytest.raises(ValueError):
            SearchTree(
                ttt, ttt.initial_state(), XorShift64Star(1), ucb_c=-0.1
            )


class TestSelectExpand:
    def test_first_calls_expand_root_children(self, ttt):
        tree = make_tree(ttt)
        seen_moves = set()
        for i in range(9):
            node, depth = tree.select_expand()
            assert depth == 1
            assert node.parent is tree.root
            seen_moves.add(node.move)
            tree.backprop_winner(node, 0)  # keep visits > 0
        assert seen_moves == set(range(9))
        assert tree.node_count == 10

    def test_descends_after_full_expansion(self, ttt):
        tree = make_tree(ttt)
        for _ in range(9):
            node, _ = tree.select_expand()
            tree.backprop_winner(node, 0)
        node, depth = tree.select_expand()
        assert depth == 2
        assert node.parent.parent is tree.root
        assert tree.max_depth == 2

    def test_expansion_order_is_seed_dependent(self, ttt):
        a = make_tree(ttt, seed=1).select_expand()[0].move
        b = make_tree(ttt, seed=2).select_expand()[0].move
        c = make_tree(ttt, seed=1).select_expand()[0].move
        assert a == c
        # different seeds will usually expand a different first move
        # (not guaranteed for any single pair, so only check determinism
        # plus the *possibility* of difference across a few seeds)
        moves = {
            make_tree(ttt, seed=s).select_expand()[0].move
            for s in range(8)
        }
        assert len(moves) > 1

    def test_terminal_node_returned_as_is(self, ttt):
        # A state one move from the end: X to move, wins with move 2.
        s = ttt.initial_state()
        for m in (0, 3, 1, 4):
            s = ttt.apply(s, m)
        tree = make_tree(ttt, state=s)
        terminals = 0
        for _ in range(40):
            node, _ = tree.select_expand()
            if node.terminal:
                terminals += 1
                assert node.winner in (-1, 0, 1)
                tree.backprop_winner(node, node.winner)
            else:
                tree.backprop_winner(node, 0)
        assert terminals > 0


class TestBackprop:
    def test_visits_propagate_to_root(self, ttt):
        tree = make_tree(ttt)
        node, _ = tree.select_expand()
        tree.backprop(node, 10, 6, 3, 1)
        assert tree.root.visits == 10
        assert node.visits == 10

    def test_wins_use_mover_perspective(self, ttt):
        tree = make_tree(ttt)
        node, _ = tree.select_expand()
        # node.mover == 1 (X moved into it); root.mover == -1
        tree.backprop(node, 10, 6, 3, 1)
        assert node.wins == pytest.approx(6 + 0.5)
        assert tree.root.wins == pytest.approx(3 + 0.5)

    def test_backprop_winner_shorthand(self, ttt):
        tree = make_tree(ttt)
        node, _ = tree.select_expand()
        tree.backprop_winner(node, 1, simulations=4)
        assert node.wins == 4.0
        assert tree.root.wins == 0.0
        assert node.visits == 4

    def test_draws_count_half_for_both(self, ttt):
        tree = make_tree(ttt)
        node, _ = tree.select_expand()
        tree.backprop_winner(node, 0, simulations=2)
        assert node.wins == pytest.approx(1.0)
        assert tree.root.wins == pytest.approx(1.0)


class TestBestChild:
    def test_prefers_higher_winrate_at_equal_visits(self, ttt):
        tree = make_tree(ttt, ucb_c=0.5)
        kids = []
        for _ in range(9):
            node, _ = tree.select_expand()
            kids.append(node)
            tree.backprop_winner(node, 0)
        winner_child = kids[3]
        tree.backprop(winner_child, 10, 10, 0, 0)
        for other in kids:
            if other is not winner_child:
                tree.backprop(other, 10, 0, 10, 0)
        assert tree.best_child(tree.root) is winner_child

    def test_exploration_pulls_to_rare_nodes_with_big_c(self, ttt):
        tree = make_tree(ttt, ucb_c=50.0)
        kids = []
        for _ in range(9):
            node, _ = tree.select_expand()
            kids.append(node)
            tree.backprop_winner(node, 0)
        rare = kids[5]
        for other in kids:
            if other is not rare:
                tree.backprop(other, 50, 50, 0, 0)  # great but well-known
        assert tree.best_child(tree.root) is rare


class TestVirtualLoss:
    def test_apply_and_revert_round_trip(self, ttt):
        tree = make_tree(ttt)
        node, _ = tree.select_expand()
        tree.apply_virtual_loss(node, 2.0)
        assert node.vloss == 2.0
        assert tree.root.vloss == 2.0
        tree.revert_virtual_loss(node, 2.0)
        assert node.vloss == 0.0
        assert tree.root.vloss == 0.0

    def test_virtual_loss_diverts_selection(self, ttt):
        tree = make_tree(ttt, ucb_c=1.0)
        kids = []
        for _ in range(9):
            node, _ = tree.select_expand()
            kids.append(node)
            tree.backprop(node, 5, 3, 1, 1)
        first = tree.best_child(tree.root)
        tree.apply_virtual_loss(first, 50.0)
        second = tree.best_child(tree.root)
        assert second is not first
        tree.revert_virtual_loss(first, 50.0)
        assert tree.best_child(tree.root) is first


class TestStats:
    def test_root_stats_shape(self, ttt):
        tree = make_tree(ttt)
        for _ in range(9):
            node, _ = tree.select_expand()
            tree.backprop_winner(node, 1)
        stats = tree.root_stats()
        assert set(stats) == set(range(9))
        for visits, wins in stats.values():
            assert visits == 1

    def test_aggregate_stats_sums_trees(self, ttt):
        trees = [make_tree(ttt, seed=s) for s in (1, 2)]
        for tree in trees:
            for _ in range(9):
                node, _ = tree.select_expand()
                tree.backprop_winner(node, 1)
        agg = aggregate_stat_dicts([t.root_stats() for t in trees])
        assert set(agg) == set(range(9))
        for visits, _ in agg.values():
            assert visits == 2

    def test_depth_of_and_iter_nodes(self, ttt):
        tree = make_tree(ttt)
        for _ in range(12):
            node, _ = tree.select_expand()
            tree.backprop_winner(node, 0)
        nodes = list(tree.iter_nodes())
        assert len(nodes) == tree.node_count
        assert max(tree.depth_of(n) for n in nodes) == tree.max_depth


def _single_trees(game):
    return [
        make_backend_tree(
            backend, game, game.initial_state(), XorShift64Star(5)
        )
        for backend in BACKENDS
    ]


class TestIntegritySurface:
    """A single tree (either backend) answers the audit/poison calls
    the integrity guard makes on forests, as tree index 0."""

    def grown(self, ttt):
        trees = _single_trees(ttt)
        for tree in trees:
            for _ in range(20):
                ref, _ = tree.select_expand()
                tree.backprop_winner(ref, 1)
        return trees

    def test_clean_tree_audits_none(self, ttt):
        for tree in self.grown(ttt):
            assert tree.audit_tree(0) is None
            assert tree.audit_tree(0, legal_moves=range(9)) is None

    def test_poisoned_root_is_reported(self, ttt):
        for tree in self.grown(ttt):
            before = tree.root_stats()
            assert tree.poison_root(0, 1000.0) is True
            after = tree.root_stats()
            # Phantom wins land on the most-visited root child only.
            victim = max(
                before, key=lambda m: (before[m][0], before[m][1], -m)
            )
            assert after[victim][1] == before[victim][1] + 1000.0
            assert {m: s for m, s in after.items() if m != victim} == {
                m: s for m, s in before.items() if m != victim
            }
            assert tree.audit_tree(0) is not None

    def test_only_tree_zero_exists(self, ttt):
        for tree in self.grown(ttt):
            assert tree.poison_root(1, 1000.0) is False
            assert tree.audit_tree(0) is None

    def test_childless_root_cannot_be_poisoned(self, ttt):
        for tree in _single_trees(ttt):
            assert tree.poison_root(0, 1.0) is False


class TestReversiTree:
    def test_pass_moves_enter_the_tree(self):
        # Position where white must pass: tree must branch through it.
        from repro.games import PASS_MOVE, ReversiState
        from repro.util.bitops import square_mask

        game = Reversi()
        s = ReversiState(
            black=square_mask(0, 0),
            white=square_mask(0, 1),
            to_move=-1,
        )
        tree = SearchTree(game, s, XorShift64Star(3))
        node, depth = tree.select_expand()
        assert node.move == PASS_MOVE
        assert depth == 1
