"""Behavioural tests for the shared-tree engine family.

``tree:N`` (virtual loss / WU-UCT) and ``pipeline:N`` (3PMCTS staging)
share one tree, one in-flight marker mechanism, and one mode-validation
path; these tests pin the semantics the differential suite cannot see:
how the two accounting modes actually differ, and how the pipeline's
virtual-clock overlap behaves.
"""

import math

import pytest

from repro.core import PipelineMcts, TreeParallelMcts, make_engine
from repro.core.tree import SearchTree
from repro.core.tree_parallel import resolve_shared_tree_mode
from repro.games import TicTacToe, make_game
from repro.rng import XorShift64Star

BUDGET = 2e-3
GAME = TicTacToe()


class TestModeResolution:
    def test_vloss_defaults_to_unit_marker(self):
        assert resolve_shared_tree_mode("vloss", None) == ("vloss", 1.0)
        assert resolve_shared_tree_mode("vloss", 2.5) == ("vloss", 2.5)

    def test_wuct_marker_is_always_one(self):
        assert resolve_shared_tree_mode("wuct", None) == ("wuct", 1.0)

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError, match="vloss"):
            resolve_shared_tree_mode("banzai", None)


class TestWuctSelection:
    """WU-UCT: exploration sees in-flight counts, the mean does not."""

    def _marked_tree(self, mode):
        """A root with every child expanded: one *strong* child
        (perfect completed record) carrying a heavy in-flight marker,
        the rest weak but unmarked."""
        tree = SearchTree(
            GAME,
            GAME.initial_state(),
            XorShift64Star(1),
            parallel_mode=mode,
        )
        while tree.root.untried:
            ref, _ = tree.select_expand()
            tree.backprop_winner(ref, 0)
        strong = tree.root.children[0]
        for child in tree.root.children:
            child.visits, child.wins, child.vloss = 2.0, 0.0, 0.0
        strong.wins = 2.0
        tree.root.visits = 2.0 * len(tree.root.children)
        tree.root.vloss = 0.0
        tree.apply_virtual_loss(strong, 10.0)
        return tree, strong

    def test_vloss_marker_drags_the_strong_child_down(self):
        tree, strong = self._marked_tree("vloss")
        # Mean collapses to wins/(visits + marker) = 2/12, so the
        # marked child loses to unvisited-looking siblings.
        assert tree.best_child(tree.root) is not strong

    def test_wuct_mean_ignores_in_flight_samples(self):
        tree, strong = self._marked_tree("wuct")
        # Mean stays wins/completed = 1.0; only the exploration term
        # sees the marker, which is not enough to dethrone it.
        assert tree.best_child(tree.root) is strong


class TestWuctSearch:
    def test_wuct_and_vloss_diverge(self):
        base = TreeParallelMcts(GAME, 5, n_workers=8).search(
            GAME.initial_state(), BUDGET
        )
        wuct = TreeParallelMcts(GAME, 5, n_workers=8, mode="wuct").search(
            GAME.initial_state(), BUDGET
        )
        assert base.stats != wuct.stats

    def test_single_worker_modes_agree(self):
        """With one worker there is never an in-flight marker at
        selection time, so the two modes are the same algorithm."""
        a = TreeParallelMcts(GAME, 5, n_workers=1).search(
            GAME.initial_state(), BUDGET
        )
        b = TreeParallelMcts(GAME, 5, n_workers=1, mode="wuct").search(
            GAME.initial_state(), BUDGET
        )
        assert a.stats == b.stats
        assert a.move == b.move


class TestPipeline:
    def test_overlap_beats_serial_round_time(self):
        """The pipeline's elapsed virtual time is less than the sum of
        its stage busy times: CPU work genuinely overlaps the device."""
        engine = PipelineMcts(GAME, 3, n_workers=8)
        res = engine.search(GAME.initial_state(), BUDGET)
        serial = (
            res.extras["pipeline.select_s"]
            + res.extras["pipeline.backprop_s"]
            + res.extras["pipeline.playout_s"]
        )
        assert res.elapsed_s < serial
        assert 0.0 < res.extras["pipeline.cpu_occupancy"] <= 1.0
        assert 0.0 < res.extras["pipeline.device_occupancy"] <= 1.0

    def test_rounds_and_iterations_consistent(self):
        engine = PipelineMcts(GAME, 3, n_workers=4)
        res = engine.search(GAME.initial_state(), BUDGET)
        rounds = res.extras["pipeline.rounds"]
        assert rounds > 1
        # Each round retires at most n_workers playouts.
        assert res.iterations <= rounds * 4

    def test_pipeline_differs_from_tree_parallel(self):
        """One-round staleness is observable: the pipeline and the
        synchronous shared-tree engine see different statistics."""
        tree = TreeParallelMcts(GAME, 5, n_workers=4).search(
            GAME.initial_state(), BUDGET
        )
        pipe = PipelineMcts(GAME, 5, n_workers=4).search(
            GAME.initial_state(), BUDGET
        )
        assert tree.stats != pipe.stats

    def test_iteration_cap_respected(self):
        engine = PipelineMcts(GAME, 3, n_workers=4, max_iterations=10)
        res = engine.search(GAME.initial_state(), 1e9)
        # The cap is checked at round boundaries; a pipeline can
        # overshoot by the retiring round plus the in-flight drain.
        assert res.iterations <= 10 + 2 * 4

    @pytest.mark.parametrize("game_name", ["tictactoe", "connect4"])
    def test_all_root_moves_get_visits(self, game_name):
        game = make_game(game_name)
        res = make_engine("pipeline:4", game, 11).search(
            game.initial_state(), BUDGET
        )
        assert sum(v for v, _ in res.stats.values()) > 0
        assert all(
            not math.isnan(w) for _, w in res.stats.values()
        )


@pytest.mark.parametrize(
    "spec", ["tree:8@vloss=0.5", "tree:8@wuct", "pipeline:4@wuct"]
)
def test_arena_backend_reproduces_the_pointer_tree(spec):
    """In-flight markers -- fractional virtual loss, WU-UCT counts --
    enter the arena's descent (compiled, or the Python body under
    ``REPRO_COMPILED=0``) exactly as they enter the pointer tree's."""
    node, arena = (
        make_engine(f"{spec}@{backend}", GAME, seed=5).search(
            GAME.initial_state(), BUDGET
        )
        for backend in ("node", "arena")
    )
    assert (arena.move, arena.stats) == (node.move, node.stats)
    assert arena.tree_nodes == node.tree_nodes > 9
