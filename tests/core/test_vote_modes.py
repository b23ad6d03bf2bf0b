"""Tests for root-vote aggregation modes (sum vs majority)."""

import pytest

from repro.core import BlockParallelMcts, RootParallelMcts
from repro.core.tree import SearchTree, majority_vote_stat_dicts
from repro.games import TicTacToe
from repro.rng import XorShift64Star

GAME = TicTacToe()


class TestMajorityVoteStats:
    def make_tree_with_preference(self, move, seed):
        tree = SearchTree(GAME, GAME.initial_state(), XorShift64Star(seed))
        for _ in range(9):
            node, _ = tree.select_expand()
            tree.backprop_winner(node, 0)
        # inflate the chosen move's child visits
        for child in tree.root.children:
            if child.move == move:
                tree.backprop(child, 10, 5, 5, 0)
        return tree

    def test_one_ballot_per_tree(self):
        trees = [
            self.make_tree_with_preference(4, seed=1),
            self.make_tree_with_preference(4, seed=2),
            self.make_tree_with_preference(0, seed=3),
        ]
        ballots = majority_vote_stat_dicts([t.root_stats() for t in trees])
        assert ballots[4][0] == 2.0
        assert ballots[0][0] == 1.0

    def test_majority_wins_despite_visit_mass(self):
        # Two trees prefer move 4 weakly; one prefers move 0 strongly.
        trees = [
            self.make_tree_with_preference(4, seed=1),
            self.make_tree_with_preference(4, seed=2),
            self.make_tree_with_preference(0, seed=3),
        ]
        tree0 = trees[2]
        for child in tree0.root.children:
            if child.move == 0:
                tree0.backprop(child, 1000, 600, 400, 0)
        from repro.core import select_move

        ballots = majority_vote_stat_dicts([t.root_stats() for t in trees])
        assert select_move(ballots) == 4


class TestEngineVoteModes:
    def test_rejects_unknown_mode(self):
        with pytest.raises(ValueError, match="vote mode"):
            RootParallelMcts(GAME, seed=1, n_trees=2, vote="plurality+")
        with pytest.raises(ValueError, match="vote mode"):
            BlockParallelMcts(
                GAME, seed=1, blocks=2, threads_per_block=32, vote="x"
            )

    @pytest.mark.parametrize("vote", ["sum", "majority"])
    def test_both_modes_search(self, vote):
        engine = RootParallelMcts(GAME, seed=2, n_trees=4, vote=vote)
        result = engine.search(GAME.initial_state(), budget_s=0.002)
        assert result.move in range(9)

    @pytest.mark.parametrize("vote", ["sum", "majority"])
    def test_block_parallel_modes(self, vote):
        engine = BlockParallelMcts(
            GAME, seed=2, blocks=2, threads_per_block=32, vote=vote
        )
        result = engine.search(GAME.initial_state(), budget_s=0.002)
        assert result.move in range(9)

    def test_majority_still_finds_tactics(self):
        s = GAME.initial_state()
        for m in (6, 0, 7, 1):
            s = GAME.apply(s, m)  # X wins with 8
        engine = BlockParallelMcts(
            GAME, seed=5, blocks=2, threads_per_block=32, vote="majority"
        )
        assert engine.search(s, budget_s=0.004).move == 8
