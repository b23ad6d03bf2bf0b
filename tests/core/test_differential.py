"""Differential tests across the engine-spec registry.

Three oracles:

* every registered engine kind is exactly reproducible -- the same
  spec, seed and budget produce the identical chosen move and root
  visit totals across independent runs;
* a block-parallel engine with one thread per block is root
  parallelism in disguise: ``block:Nx1`` must agree with ``root:N`` on
  the *aggregated* root statistics (total visits, simulations, visited
  moves) under a fixed iteration budget.  Per-move statistics differ
  -- the two engines draw from differently-derived RNG streams -- so
  the oracle compares what the algorithms must share, not incidental
  stream layout;
* the compiled playout executor is a pure performance knob: every
  kind x {node, arena} x {numpy, compiled} cell must produce the
  bit-identical search (move, per-move stats, counters, virtual
  time), whether the C library actually loaded or the executor fell
  back to NumPy.
"""

import pytest

from repro.core.spec import engine_kinds, make_engine
from repro.games import make_game

#: One small spec per registered engine kind -- update when a kind is
#: registered without a row here (the registry test enforces this).
SMALL_SPECS = {
    "sequential": "sequential",
    "leaf": "leaf:1x32",
    "block": "block:2x8",
    "hybrid": "hybrid:2x32",
    "root": "root:2",
    "tree": "tree:2",
    "pipeline": "pipeline:2",
    "multigpu": "multigpu:2x2x16",
}

#: Modifier-decorated variants of the shared-tree engines, exercised
#: through the same reproducibility / backend-equivalence oracles.
MODIFIER_SPECS = ["tree:2@wuct", "pipeline:2@wuct", "tree:2@vloss=1.5"]

BUDGET_S = 4e-4
SEED = 2011


def test_every_registered_kind_is_covered():
    assert {k.name for k in engine_kinds()} == set(SMALL_SPECS)


def _run(spec: str, game_name: str = "tictactoe"):
    game = make_game(game_name)
    engine = make_engine(spec, game, SEED)
    return engine.search(game.initial_state(), BUDGET_S)


@pytest.mark.parametrize(
    "spec", sorted(SMALL_SPECS.values()) + MODIFIER_SPECS
)
def test_fixed_seed_reproduces_identical_search(spec):
    first = _run(spec)
    second = _run(spec)
    assert first.move == second.move
    assert first.stats == second.stats
    assert first.simulations == second.simulations
    assert first.iterations == second.iterations
    assert first.elapsed_s == second.elapsed_s


@pytest.mark.parametrize(
    "spec", sorted(SMALL_SPECS.values()) + MODIFIER_SPECS
)
def test_arena_backend_matches_node_backend(spec):
    """The array arena is a drop-in replacement: same spec + seed on
    ``@arena`` must reproduce the node backend's search bit for bit --
    chosen move, per-move root stats, counters, virtual time, and the
    per-tree shape of the forest."""
    node = _run(spec)
    arena = _run(f"{spec}@arena")
    assert arena.move == node.move
    assert arena.stats == node.stats
    assert arena.iterations == node.iterations
    assert arena.simulations == node.simulations
    assert arena.elapsed_s == node.elapsed_s
    assert arena.max_depth == node.max_depth
    assert arena.tree_nodes == node.tree_nodes
    for key in ("tree.depth", "tree.nodes"):
        assert arena.extras.get(key) == node.extras.get(key)


@pytest.mark.parametrize("game_name", ["connect4", "reversi"])
def test_arena_backend_matches_node_backend_other_games(game_name):
    node = _run("block:2x8", game_name)
    arena = _run("block:2x8@arena", game_name)
    assert arena.move == node.move
    assert arena.stats == node.stats
    assert arena.simulations == node.simulations


@pytest.mark.parametrize("backend_suffix", ["", "@arena"])
@pytest.mark.parametrize("spec", sorted(SMALL_SPECS.values()))
def test_results_and_payloads_hold_builtin_numbers(spec, backend_suffix):
    """No NumPy scalar leaves a store: what a search reports, and the
    per-tree / per-worker clocks a mid-search snapshot carries, are
    builtin ``int`` / ``float`` on both backends (an arena depth that
    stays ``np.int64`` turns ``root:N@arena``'s clocks, and so its
    ``elapsed_s``, into ``np.float64``)."""
    game = make_game("tictactoe")
    engine = make_engine(f"{spec}{backend_suffix}", game, SEED)
    payloads = []

    def hook(eng, iterations):
        if not payloads:
            payloads.append(eng.snapshot().payload)

    engine.iteration_hook = hook
    result = engine.search(game.initial_state(), BUDGET_S)
    assert type(result.elapsed_s) is float
    for name in ("iterations", "simulations", "max_depth", "move"):
        assert type(getattr(result, name)) is int, name
    for move, (visits, wins) in result.stats.items():
        assert (type(move), type(visits), type(wins)) == (int, float, float)
    (payload,) = payloads
    clocks = payload.get("core_time", []) + payload.get("worker_time", [])
    assert {type(t) for t in clocks} <= {float}
    assert ("core_time" in payload) == spec.startswith("root")
    assert ("worker_time" in payload) == spec.startswith("tree")


def _assert_identical(a, b):
    assert a.move == b.move
    assert a.stats == b.stats
    assert a.iterations == b.iterations
    assert a.simulations == b.simulations
    assert a.elapsed_s == b.elapsed_s
    assert a.max_depth == b.max_depth
    assert a.tree_nodes == b.tree_nodes


@pytest.mark.compiled
@pytest.mark.parametrize(
    "spec", sorted(SMALL_SPECS.values()) + MODIFIER_SPECS
)
@pytest.mark.parametrize("backend_suffix", ["", "@arena"])
def test_compiled_playout_matches_numpy(spec, backend_suffix):
    """The full kind x backend x executor wall: ``@compiled`` never
    changes a search, on either tree backend.  When the C toolchain is
    absent the compiled executor silently runs NumPy, so this also
    pins the fallback to exact identity."""
    baseline = _run(f"{spec}{backend_suffix}")
    compiled = _run(f"{spec}{backend_suffix}@compiled")
    _assert_identical(compiled, baseline)


@pytest.mark.compiled
@pytest.mark.parametrize("game_name", ["connect4", "reversi"])
def test_compiled_playout_matches_numpy_other_games(game_name):
    baseline = _run("block:2x8", game_name)
    compiled = _run("block:2x8@compiled", game_name)
    _assert_identical(compiled, baseline)


@pytest.mark.compiled
def test_compiled_disabled_env_forces_identical_fallback(compiled_env):
    """``REPRO_COMPILED=0`` must flip an ``@compiled`` engine onto the
    NumPy path without changing a single bit of its search."""
    enabled = _run("block:2x8@compiled", "reversi")
    compiled_env("0")
    from repro.compiled import compiled_available

    assert not compiled_available()
    disabled = _run("block:2x8@compiled", "reversi")
    _assert_identical(disabled, enabled)


@pytest.mark.parametrize("n_trees", [2, 4])
def test_block_with_one_thread_matches_root_aggregates(n_trees):
    game = make_game("tictactoe")
    iterations = 50

    def aggregate(spec):
        engine = make_engine(spec, game, SEED, max_iterations=iterations)
        result = engine.search(game.initial_state(), 1e9)
        visits = sum(v for v, _ in result.stats.values())
        return visits, result.simulations, frozenset(result.stats)

    block = aggregate(f"block:{n_trees}x1")
    root = aggregate(f"root:{n_trees}")
    assert block == root
    # Both ran every tree for the full iteration budget.
    assert block[0] == n_trees * iterations


def test_block_trees_report_matches_root():
    game = make_game("tictactoe")
    block = make_engine("block:4x1", game, SEED, max_iterations=10)
    root = make_engine("root:4", game, SEED, max_iterations=10)
    rb = block.search(game.initial_state(), 1e9)
    rr = root.search(game.initial_state(), 1e9)
    assert rb.trees == rr.trees == 4
