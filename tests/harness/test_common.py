"""Tests for harness plumbing: schemes, grids, tiers, registry."""

import warnings

import pytest

from repro.compiled import compiled_available
from repro.core.backend import default_stack
from repro.core.executors import playout_active
from repro.games import make_game
from repro.harness import EXPERIMENTS, PAPER_THREAD_SWEEP, Scheme, run_experiment
from repro.harness.common import cohort_executor, mcts_player, resolve_tier


class TestScheme:
    def test_label(self):
        assert Scheme("block", 32).label == "block(bs=32)"

    def test_grid_exact_division(self):
        assert Scheme("block", 64).grid_for(1024) == (16, 64)

    def test_grid_partial_block(self):
        assert Scheme("leaf", 64).grid_for(8) == (1, 8)

    def test_grid_paper_sweep_always_valid(self):
        for scheme_bs in (32, 64, 128):
            scheme = Scheme("block", scheme_bs)
            for threads in PAPER_THREAD_SWEEP:
                blocks, tpb = scheme.grid_for(threads)
                assert blocks * tpb == threads

    def test_grid_rejects_nondivisible(self):
        with pytest.raises(ValueError):
            Scheme("block", 64).grid_for(96)

    def test_grid_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            Scheme("block", 64).grid_for(0)

    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError):
            Scheme("warp", 32)


class TestTier:
    def test_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_TIER", raising=False)
        assert resolve_tier() == "default"

    def test_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_TIER", "quick")
        assert resolve_tier() == "quick"

    def test_argument_beats_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_TIER", "quick")
        assert resolve_tier("full") == "full"

    def test_unknown(self):
        with pytest.raises(ValueError):
            resolve_tier("turbo")


class TestRegistry:
    def test_all_paper_figures_registered(self):
        for fig in (
            "fig5_speed",
            "fig6_winratio",
            "fig7_gpu_vs_cpus",
            "fig8_hybrid",
            "fig9_multigpu",
        ):
            assert fig in EXPERIMENTS

    def test_unknown_experiment(self):
        with pytest.raises(ValueError, match="unknown experiment"):
            run_experiment("fig42")


class TestStack:
    """The harness spells no stack: every engine, player and cohort
    executor a figure runs is on ``default_stack``'s answer for its
    game, read off what was built."""

    @pytest.mark.skipif(not compiled_available(), reason="no C toolchain")
    @pytest.mark.parametrize("name", ["reversi", "connect4", "tictactoe"])
    def test_kernel_games_run_the_measured_stack(self, name):
        game = make_game(name)
        assert default_stack(name) == ("arena", "compiled")
        for spec in ("block:2x32", "sequential"):
            subject = mcts_player(game, spec, 0.01)(1).engine
            assert subject.backend == "arena"
            assert playout_active(subject.playout) == "compiled"
        assert cohort_executor(game).playout == "compiled"

    def test_spec_spelling_its_own_backend_wins(self):
        game = make_game("tictactoe")
        subject = mcts_player(game, "block:2x32@node", 0.01)(1).engine
        assert (subject.backend, subject.playout) == ("node", "numpy")

    def test_game_without_kernels_stays_on_the_reference_stack(self):
        game = make_game("breakthrough")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            subject = mcts_player(game, "block:2x32", 0.01)(1).engine
            subject.search(game.initial_state(), 0.002)
            executor = cohort_executor(game)
            executor([(1, [game.initial_state()] * executor.SCALAR_CUTOFF)])
        assert (subject.backend, subject.playout) == ("node", "numpy")
        assert executor.playout == "numpy"

    def test_without_a_toolchain_every_game_does(self, compiled_env):
        compiled_env("0")
        game = make_game("reversi")
        subject = mcts_player(game, "block:2x32", 0.01)(1).engine
        assert (subject.backend, subject.playout) == ("node", "numpy")
        assert cohort_executor(game).playout == "numpy"
