"""The hand-written GPU search loops: the oracle of the round-driven ones.

``leaf``, ``block`` and ``hybrid`` once ran their searches as three
``while`` loops of their own (one ``_session_run`` per engine, a
screen-and-retry loop beside it for ``block``).  They now run their
round policies (``LeafRound``, ``BlockRound``, ``HybridRound`` in
``repro.core.rounds``) through ``run_rounds``, like every other kind
but ``multigpu``.  :func:`reference_search` and :func:`reference_resume`
keep the loops; ``test_gpu_rounds.py`` holds every search, clock,
device state and profiler count they produce equal to the product's.

The loops read and write the engine's ``_live`` dict exactly as the
product does, so a session restored from either side's snapshot runs
on either.  :func:`reference_search` also sets the session up itself,
as the old ``search()`` overrides did, RNG forks in their order.  The
hybrid's CPU playouts play the session's stream in Python
(``Game.playout`` on an ``XorShift128PlusLane``), where the product
asks the executor.
"""

from __future__ import annotations

import numpy as np

from repro.core.base import tally
from repro.integrity.audit import MAX_RESULT_RETRIES
from repro.rng import XorShift128PlusLane
from repro.util.seeding import derive_seed
from tests.round_steps import next_seed


def reference_search(engine, state, budget_s):
    """``engine.search(state, budget_s)``, stepped by the old loop."""
    engine._check_budget(budget_s, state)
    blocks = engine.config.blocks
    if engine.name == "leaf_parallel":
        engine._live = {
            "tree": engine._make_forest(state, [engine.rng.fork("tree")]),
            "start_s": engine.clock.now,
            "budget_s": budget_s,
            "iterations": 0,
            "simulations": 0,
        }
    elif engine.name == "block_parallel":
        engine._live = {
            "forest": engine._make_forest(
                state, [engine.rng.fork("tree", b) for b in range(blocks)]
            ),
            "start_s": engine.clock.now,
            "budget_s": budget_s,
            "iterations": 0,
            "simulations": 0,
            "integrity": engine._make_guard(blocks),
        }
    else:
        engine.sessions += 1
        engine._live = {
            "forest": engine._make_forest(
                state, [engine.rng.fork("tree", b) for b in range(blocks)]
            ),
            "playout_seed": derive_seed(
                engine.seed, "session", engine.sessions
            ),
            "playout_calls": 0,
            "start_s": engine.clock.now,
            "budget_s": budget_s,
            "next_tree": 0,
            "iterations": 0,
            "cpu_iterations": 0,
            "simulations": 0,
        }
    return reference_resume(engine)


def reference_resume(engine):
    """``engine.resume()``, stepped by the old loop."""
    loop = {
        "leaf_parallel": _leaf_run,
        "block_parallel": _block_run,
        "hybrid": _hybrid_run,
    }[engine.name]
    return loop(engine)


def _charge_tree_control(engine, depths) -> None:
    if isinstance(depths, np.ndarray):
        depths = depths.tolist()
    for depth in depths:
        engine.clock.advance(engine.cost.tree_control_time(depth))


def _leaf_run(engine):
    live = engine._live
    tree = live["tree"]
    budget_s = live["budget_s"]
    cap = engine._iteration_cap()
    grid = engine.config.total_threads
    while (
        engine.clock.now - live["start_s"] < budget_s
        and live["iterations"] < cap
    ) or live["iterations"] == 0:
        node, depth = tree.select_expand()
        # CPU sequential share: tree walk + kernel marshalling.
        engine.clock.advance(engine.cost.tree_control_time(depth))
        if tree.terminal_of(node):
            # The kernel would return the same outcome in every
            # lane; skip the launch, keep the statistics faithful.
            tree.backprop_winner(node, tree.winner_of(node), grid)
        else:
            result = engine.gpu.run_playouts(
                tree.positions_of([node]), engine.config
            )
            wins_b, wins_w, draws = tally(result.winners)
            tree.backprop(node, grid, wins_b, wins_w, draws)
        live["iterations"] += 1
        live["simulations"] += grid
        engine._after_iteration(live["iterations"])
    return engine._finish(
        tree,
        engine.clock.now - live["start_s"],
        {"gpu.kernels": engine.gpu.stats.kernels_launched},
    )


def _block_run(engine):
    live = engine._live
    forest = live["forest"]
    budget_s = live["budget_s"]
    blocks = engine.config.blocks
    tpb = engine.config.threads_per_block
    prof = engine.profiler
    guard = live["integrity"]
    cap = engine._iteration_cap()
    while (
        engine.clock.now - live["start_s"] < budget_s
        and live["iterations"] < cap
    ) or live["iterations"] == 0:
        with prof.phase("select"):
            leaves, depths = forest.select_expand_all()
            positions = forest.positions_of(leaves)
            _charge_tree_control(engine, depths)
        with prof.phase("playout"):
            if guard is None:
                result = engine.gpu.run_playouts(positions, engine.config)
                winners = result.winners
                live["simulations"] += result.playouts
            else:
                winners = _screened_winners(engine, positions, live, guard)
        with prof.phase("backprop"):
            per_block = winners.reshape(blocks, tpb)
            forest.backprop_block(leaves, tpb, per_block)
        live["iterations"] += 1
        engine._after_iteration(live["iterations"], forest, float(tpb))
    return engine._finish(
        forest,
        engine.clock.now - live["start_s"],
        {"gpu.kernels": engine.gpu.stats.kernels_launched},
    )


def _screened_winners(engine, positions, live, guard):
    """Run the kernel, screen its readback, and retry rejects; give up
    to all-draws once the retry budget runs out."""
    blocks = engine.config.blocks
    tpb = engine.config.threads_per_block
    for _ in range(MAX_RESULT_RETRIES + 1):
        result = engine.gpu.run_playouts(positions, engine.config)
        live["simulations"] += result.playouts
        winners, ok = guard.screen_block(result.winners, blocks, tpb)
        if ok:
            return winners
    guard.give_up()
    return np.zeros(blocks * tpb, dtype=np.int8)


def _hybrid_run(engine):
    live = engine._live
    forest = live["forest"]
    budget_s = live["budget_s"]
    blocks = engine.config.blocks
    tpb = engine.config.threads_per_block
    prof = engine.profiler
    cap = engine._iteration_cap()
    gpu_iterations = live["iterations"]
    cpu_iterations = live["cpu_iterations"]
    simulations = live["simulations"]
    next_tree = live["next_tree"]
    while (
        engine.clock.now - live["start_s"] < budget_s
        and gpu_iterations < cap
    ) or gpu_iterations == 0:
        with prof.phase("select"):
            leaves, depths = forest.select_expand_all()
            positions = forest.positions_of(leaves)
            _charge_tree_control(engine, depths)
        event = engine.gpu.launch_async(positions, engine.config)
        with prof.phase("cpu_overlap"):
            while not engine.gpu.stream.query(event):
                t = next_tree
                next_tree = (next_tree + 1) % blocks
                node, depth = forest.select_expand(t)
                if forest.terminal_of(node):
                    forest.backprop_winner(node, forest.winner_of(node))
                    plies = 0
                else:
                    winner, plies = engine.game.playout(
                        forest.state_of(node),
                        XorShift128PlusLane(next_seed(live), 0),
                    )
                    forest.backprop_winner(node, winner)
                engine.clock.advance(engine.cost.iteration_time(depth, plies))
                cpu_iterations += 1
                simulations += 1
        result = engine.gpu.stream.synchronize(event)
        with prof.phase("backprop"):
            per_block = result.winners.reshape(blocks, tpb)
            forest.backprop_block(leaves, tpb, per_block)
        gpu_iterations += 1
        simulations += result.playouts
        live["iterations"] = gpu_iterations
        live["cpu_iterations"] = cpu_iterations
        live["simulations"] = simulations
        live["next_tree"] = next_tree
        engine._after_iteration(gpu_iterations)
    return engine._finish(
        forest,
        engine.clock.now - live["start_s"],
        {
            "cpu.iterations": cpu_iterations,
            "gpu.kernels": engine.gpu.stats.kernels_launched,
        },
    )
