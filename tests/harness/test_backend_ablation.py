"""Smoke tests for the tree-backend ablation."""

from repro.core import make_engine
from repro.harness import EXPERIMENTS
from repro.harness.ablations import (
    STACK_GRID,
    BackendConfig,
    run_backend_ablation,
)


def test_registered():
    assert "abl_tree_backend" in EXPERIMENTS


def test_tiny_run_reports_both_backends_identical():
    result = run_backend_ablation(
        BackendConfig(blocks=4, tpb=2, iterations=6, game="tictactoe")
    )
    assert set(result.iters_per_s) == {"node+numpy", "arena+numpy"}
    assert all(v > 0 for v in result.iters_per_s.values())
    assert result.identical
    assert result.speedup > 0
    rendered = result.render()
    assert "arena+numpy/node+numpy speedup" in rendered
    assert "identical results" in rendered


def test_tier_presets():
    assert BackendConfig.for_tier("quick").iterations == 120
    assert BackendConfig.for_tier("full").blocks == 512


def test_tiny_run_of_the_whole_stack_grid():
    result = run_backend_ablation(
        BackendConfig(blocks=4, tpb=2, iterations=6, cells=STACK_GRID)
    )
    assert set(result.iters_per_s) == set(STACK_GRID)
    assert set(result.phases) == set(STACK_GRID)
    assert result.identical
    rows = result.render().splitlines()
    for cell in STACK_GRID:
        assert sum(row.startswith(cell + " ") for row in rows) == 1
    assert "node+compiled/node+numpy speedup" in result.render()
    assert BackendConfig.playout_heavy().cells == STACK_GRID


def test_a_disagreeing_cell_is_reported(monkeypatch):
    """Identity covers move, root stats, iterations and simulations:
    one cell searching under another seed must show."""
    from repro.harness import ablations

    def reseeded(spec, game, seed):
        return make_engine(spec, game, seed + (spec["backend"] == "arena"))

    monkeypatch.setattr(ablations, "make_engine", reseeded)
    result = run_backend_ablation(
        BackendConfig(blocks=4, tpb=2, iterations=6, game="tictactoe")
    )
    assert not result.identical
    rows = result.render().splitlines()
    assert ["identical", "results", "False"] in [row.split() for row in rows]
