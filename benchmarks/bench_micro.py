"""Microbenchmarks of the substrates the figures stand on.

These use pytest-benchmark's statistics properly (many rounds): batched
playout throughput, the scalar playout fast path, tree operations (on
both the pointer-tree and arena backends), the RNG, and simulated-MPI
collectives.

Run directly (``python benchmarks/bench_micro.py [--quick]``) it
compares block-parallel iterations/sec on the ``node`` vs ``arena``
tree backends and exits non-zero if the arena is not faster -- the CI
benchmark-smoke gate.  ``--compare executors`` times the full backend
x playout-executor grid (gate: compiled beats NumPy, bit-identically).
``--compare fused`` gates the combined serving stack -- fused
cross-tenant launches + compiled playouts must clear ``--threshold``
(default 5x) round throughput over the unfused NumPy baseline with
bit-identical per-lane answers.
"""

import argparse
import sys
import time

import numpy as np
import pytest

from repro.core.backend import make_forest, make_tree
from repro.core.tree import SearchTree
from repro.games import BatchReversi, Reversi, make_game
from repro.games.batch import run_playouts_tracked, select_random_bit
from repro.gpu import TESLA_C2050, LaunchConfig, VirtualGpu
from repro.mpi import MpiCluster, TSUBAME_IB
from repro.rng import BatchXorShift128Plus, XorShift64Star
from repro.util.clock import Clock


def test_micro_batch_playout_1024(benchmark):
    game = Reversi()
    bg = BatchReversi()
    state = game.initial_state()

    def run():
        rng = BatchXorShift128Plus(1024, 7)
        batch = bg.make_batch([state], 1024)
        return run_playouts_tracked(bg, batch, rng)

    tracked = benchmark.pedantic(run, iterations=1, rounds=3)
    assert tracked.winners.shape == (1024,)


def test_micro_scalar_playout(benchmark):
    game = Reversi()
    state = game.initial_state()
    rng = XorShift64Star(3)

    winner, plies = benchmark(game.playout, state, rng)
    assert winner in (-1, 0, 1)
    assert plies > 0


def test_micro_tree_iteration(benchmark):
    game = Reversi()

    def thousand_iterations():
        tree = SearchTree(
            game, game.initial_state(), XorShift64Star(5), 1.0
        )
        for _ in range(1000):
            node, _ = tree.select_expand()
            tree.backprop_winner(node, 1)
        return tree

    tree = benchmark.pedantic(
        thousand_iterations, iterations=1, rounds=3
    )
    assert tree.node_count == 1001


def test_micro_arena_tree_iteration(benchmark):
    game = Reversi()

    def thousand_iterations():
        tree = make_tree(
            "arena", game, game.initial_state(), XorShift64Star(5), 1.0
        )
        for _ in range(1000):
            node, _ = tree.select_expand()
            tree.backprop_winner(node, 1)
        return tree

    tree = benchmark.pedantic(
        thousand_iterations, iterations=1, rounds=3
    )
    assert tree.node_count == 1001


def test_micro_arena_forest_lockstep(benchmark):
    game = make_game("connect4")

    def lockstep_rounds():
        rngs = [XorShift64Star(b) for b in range(64)]
        forest = make_forest(
            "arena", game, game.initial_state(), rngs, 1.0
        )
        for _ in range(100):
            leaves, _ = forest.select_expand_all()
            for leaf in leaves:
                forest.backprop_winner(leaf, 1)
        return forest

    forest = benchmark.pedantic(lockstep_rounds, iterations=1, rounds=3)
    assert forest.node_count == 64 * 101


def test_micro_arena_forest_root_round(benchmark):
    """The two store calls of a ``root:8`` round, on plain data."""
    game = make_game("connect4")

    def root_rounds():
        rngs = [XorShift64Star(b) for b in range(8)]
        forest = make_forest("arena", game, game.initial_state(), rngs, 1.0)
        trees = list(range(8))
        for r in range(200):
            refs, depths, states, terminal = forest.select_round(trees)
            forest.backprop_winners(refs, [(r + t) % 3 - 1 for t in trees])
        return forest, (refs, depths, states, terminal)

    forest, round_ = benchmark.pedantic(root_rounds, iterations=1, rounds=3)
    assert forest.node_count == 8 * 201
    refs, depths, states, terminal = round_
    assert all(type(column) is list for column in round_)
    assert {type(x) for x in refs + depths} == {int}
    assert {type(x) for x in terminal} == {bool}
    assert states == [forest.state_of(ref) for ref in refs]


@pytest.mark.parametrize("blocks,tpb", [(256, 1), (112, 64)])
def test_micro_gpu_block_launch(benchmark, blocks, tpb):
    """One kernel launch from an arena's leaves -- columns in, no state
    built -- at ``search_tree``'s and ``search_block``'s shapes; equal to
    the list-of-states launch on a twin device."""
    game = make_game("reversi")
    state = game.initial_state()
    for ply in range(20):  # a mid-game root
        state = game.apply(state, game.legal_moves(state)[ply % 3 - 1])
    rngs = [XorShift64Star(b) for b in range(blocks)]
    forest = make_forest("arena", game, state, rngs, 1.0)
    for r in range(6):
        leaves, _ = forest.select_expand_all()
        forest.backprop_winners(leaves, [(r + b) % 3 - 1 for b in range(blocks)])
    config = LaunchConfig(blocks, tpb)
    gpu, twin = (
        VirtualGpu(TESLA_C2050, Clock(), "reversi", 3, playout="compiled")
        for _ in range(2)
    )

    def launch():
        return gpu.run_playouts(forest.positions_of(leaves), config)

    result = benchmark.pedantic(launch, iterations=1, rounds=5)
    states = [forest.state_of(leaf) for leaf in leaves]
    for _ in range(gpu.stats.kernels_launched):
        want = twin.run_playouts(states, config)
    assert result.winners.tolist() == want.winners.tolist()
    assert result.scores.tolist() == want.scores.tolist()
    assert result.block_steps.tolist() == want.block_steps.tolist()
    assert result.timing == want.timing and gpu.clock.now == twin.clock.now


def test_micro_rng_batch(benchmark):
    rng = BatchXorShift128Plus(4096, 9)
    out = benchmark(rng.next_u64)
    assert out.shape == (4096,)


def test_micro_select_random_bit(benchmark):
    rng = BatchXorShift128Plus(4096, 9)
    masks = BatchXorShift128Plus(4096, 11).next_u64()

    out = benchmark(select_random_bit, masks, rng)
    assert out.shape == (4096,)


def test_micro_mpi_allreduce(benchmark):
    def allreduce_round():
        cluster = MpiCluster(16, TSUBAME_IB)
        values = [np.ones(65)] * 16
        return cluster.allreduce(values, op="sum")

    out = benchmark.pedantic(allreduce_round, iterations=1, rounds=5)
    assert float(out[0][0]) == 16.0


# --------------------------------------------------------------------
# Direct invocation: node-vs-arena backend comparison (CI smoke gate).
# --------------------------------------------------------------------


def bench_backends(args) -> int:
    """Time block-parallel search on both tree backends and report.

    Returns 0 when the arena backend is faster (iterations/sec) and
    produced bit-identical results, 1 otherwise.
    """
    from repro.core import make_engine
    from repro.util.profile import Profiler
    from repro.util.tables import format_table

    game = make_game(args.game)
    state = game.initial_state()
    spec = {
        "kind": "block",
        "blocks": args.blocks,
        "threads_per_block": args.tpb,
        "max_iterations": args.iterations,
    }
    runs = {}
    for backend in ("node", "arena"):
        engine = make_engine(dict(spec, backend=backend), game, args.seed)
        engine.profiler = prof = Profiler()
        t0 = time.perf_counter()
        result = engine.search(state, 1e9)
        wall = time.perf_counter() - t0
        runs[backend] = (result, result.iterations / wall, prof)

    (res_n, ips_n, prof_n), (res_a, ips_a, prof_a) = (
        runs["node"],
        runs["arena"],
    )
    identical = (
        res_n.move == res_a.move
        and res_n.stats == res_a.stats
        and res_n.iterations == res_a.iterations
        and res_n.simulations == res_a.simulations
    )
    rows = [
        (
            backend,
            f"{ips:.1f}",
            res.iterations,
            res.simulations,
            res.tree_nodes,
            res.move,
        )
        for backend, (res, ips, _) in runs.items()
    ]
    print(
        format_table(
            ("backend", "iters/s", "iters", "sims", "nodes", "move"),
            rows,
            title=(
                f"block-parallel {args.game} "
                f"{args.blocks}x{args.tpb}, seed {args.seed}"
            ),
        )
    )
    print(
        f"\nspeedup (arena/node): {ips_a / ips_n:.2f}x"
        f"   identical results: {identical}"
    )
    if args.profile:
        for backend, (_, _, prof) in runs.items():
            print()
            print(prof.render(title=f"{backend} phases"))
    if not identical:
        print("FAIL: backends disagree", file=sys.stderr)
        return 1
    if ips_a <= ips_n:
        print("FAIL: arena backend not faster than node", file=sys.stderr)
        return 1
    return 0


def bench_executors(args) -> int:
    """Time block-parallel search across the full backend x executor
    grid.

    Returns 0 when the compiled executor clears ``args.threshold`` x
    the NumPy baseline's iterations/sec (same node backend) with every
    cell bit-identical, 1 otherwise.  With no C toolchain the compiled
    cells silently run NumPy, so the gate cannot pass -- CI only runs
    this mode on toolchain images.
    """
    from repro.compiled import compiled_available, unavailable_reason
    from repro.core import make_engine
    from repro.util.tables import format_table

    game = make_game(args.game)
    state = game.initial_state()
    spec = {
        "kind": "block",
        "blocks": args.blocks,
        "threads_per_block": args.tpb,
        "max_iterations": args.iterations,
    }
    if not compiled_available():
        print(
            f"note: compiled executor unavailable "
            f"({unavailable_reason()}); cells fall back to NumPy"
        )
    cells = [
        ("node", "numpy"),
        ("arena", "numpy"),
        ("node", "compiled"),
        ("arena", "compiled"),
    ]
    runs = {}
    for backend, playout in cells:
        engine = make_engine(
            dict(spec, backend=backend, playout=playout),
            game,
            args.seed,
        )
        t0 = time.perf_counter()
        result = engine.search(state, 1e9)
        wall = time.perf_counter() - t0
        runs[(backend, playout)] = (result, result.iterations / wall)

    base_res, base_ips = runs[("node", "numpy")]
    rows = []
    identical = True
    for backend, playout in cells:
        res, ips = runs[(backend, playout)]
        same = (
            res.move == base_res.move
            and res.stats == base_res.stats
            and res.iterations == base_res.iterations
            and res.simulations == base_res.simulations
        )
        identical = identical and same
        rows.append(
            (
                f"{backend}+{playout}",
                f"{ips:.1f}",
                f"{ips / base_ips:.2f}x",
                res.iterations,
                res.move,
                "yes" if same else "NO",
            )
        )
    print(
        format_table(
            ("stack", "iters/s", "speedup", "iters", "move", "identical"),
            rows,
            title=(
                f"backend x executor grid: block-parallel {args.game} "
                f"{args.blocks}x{args.tpb}, seed {args.seed}"
            ),
        )
    )
    gated = runs[("node", "compiled")][1] / base_ips
    print(
        f"\ncompiled speedup (node+compiled / node+numpy): "
        f"{gated:.2f}x   threshold: {args.threshold:.1f}x"
    )
    if not identical:
        print("FAIL: executor grid disagrees", file=sys.stderr)
        return 1
    if gated < args.threshold:
        print(
            f"FAIL: compiled executor below {args.threshold:.1f}x",
            file=sys.stderr,
        )
        return 1
    return 0


def bench_fused(args) -> int:
    """Gate the combined serving stack: fused launches + compiled
    playouts vs the unfused NumPy node baseline.

    Runs ``--rounds`` merged scheduler rounds of a fixed multi-tenant
    demand (``--lanes`` lanes per game per round -- the widths real
    ticks carry) through both stacks and compares wall-clock round
    throughput.  Returns 0 when the combined stack clears
    ``args.threshold`` (default 5x) with bit-identical per-lane
    answers, 1 otherwise.
    """
    from repro.compiled import compiled_available, unavailable_reason
    from repro.gpu import TESLA_C2050, DevicePool
    from repro.serve import FusedBatcher, LaneBatcher
    from repro.util.clock import Clock
    from repro.util.tables import format_table

    games = args.games.split(",")
    states = {g: make_game(g).initial_state() for g in games}
    lanes_per_round = args.lanes * len(games)

    if not compiled_available():
        print(
            f"note: compiled executor unavailable "
            f"({unavailable_reason()}); fused cell falls back to NumPy"
        )

    def run(cls, playout):
        pool = DevicePool((TESLA_C2050,) * 2, Clock())
        batcher = cls(pool, args.seed, playout=playout)
        per_round = []
        t0 = time.perf_counter()
        for _ in range(args.rounds):
            demand = {g: [states[g]] * args.lanes for g in games}
            answers, _ = batcher.execute_demand(demand)
            per_round.append(answers)
        wall = time.perf_counter() - t0
        return per_round, wall, batcher

    base_answers, base_wall, base = run(LaneBatcher, "numpy")
    fused_answers, fused_wall, fused = run(FusedBatcher, "compiled")
    identical = base_answers == fused_answers
    rows = [
        (
            "unfused+numpy",
            f"{args.rounds / base_wall:.1f}",
            f"{args.rounds * lanes_per_round / base_wall:,.0f}",
            "1.00x",
            base.launch_count,
        ),
        (
            "fused+compiled",
            f"{args.rounds / fused_wall:.1f}",
            f"{args.rounds * lanes_per_round / fused_wall:,.0f}",
            f"{base_wall / fused_wall:.2f}x",
            fused.launch_count,
        ),
    ]
    print(
        format_table(
            ("stack", "rounds/s", "lanes/s", "speedup", "launches"),
            rows,
            title=(
                f"combined serving stack: {args.rounds} rounds x "
                f"{args.lanes} lanes x {len(games)} games "
                f"({args.games}), seed {args.seed}"
            ),
        )
    )
    combined = base_wall / fused_wall
    print(
        f"\ncombined speedup (fused+compiled / unfused numpy): "
        f"{combined:.2f}x   threshold: {args.threshold:.1f}x"
        f"   identical answers: {identical}"
        f"   pad waste: {fused.pad_lanes} lanes"
    )
    if not identical:
        print("FAIL: fused+compiled answers differ", file=sys.stderr)
        return 1
    if combined < args.threshold:
        print(
            f"FAIL: combined stack below {args.threshold:.1f}x",
            file=sys.stderr,
        )
        return 1
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="block-parallel backend / executor benchmark gates"
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help="small shape for CI smoke (128 trees, 120 iterations)",
    )
    parser.add_argument(
        "--compare",
        choices=("backends", "executors", "fused"),
        default="backends",
        help=(
            "backends: node vs arena (gate: arena faster); executors: "
            "backend x playout grid (gate: compiled beats numpy); "
            "fused: fused+compiled serving stack vs unfused numpy "
            "(gate: --threshold speedup, default 5x)"
        ),
    )
    parser.add_argument("--game", default="tictactoe")
    parser.add_argument("--blocks", type=int, default=256)
    parser.add_argument("--tpb", type=int, default=1)
    parser.add_argument("--iterations", type=int, default=400)
    parser.add_argument("--seed", type=int, default=85_2011)
    parser.add_argument(
        "--threshold",
        type=float,
        default=None,
        help=(
            "minimum gated speedup (default: 5.0 for --compare fused, "
            "1.5 for --compare executors)"
        ),
    )
    parser.add_argument(
        "--games",
        default="reversi,connect4,tictactoe",
        help="comma-separated games for --compare fused",
    )
    parser.add_argument(
        "--lanes",
        type=int,
        default=128,
        help="lanes per game per round for --compare fused",
    )
    parser.add_argument(
        "--rounds",
        type=int,
        default=20,
        help="scheduler rounds for --compare fused",
    )
    parser.add_argument(
        "--profile",
        action="store_true",
        help="print per-phase wall-clock breakdown for both backends",
    )
    args = parser.parse_args(argv)
    if args.threshold is None:
        args.threshold = 5.0 if args.compare == "fused" else 1.5
    if args.quick:
        args.blocks = min(args.blocks, 128)
        args.iterations = min(args.iterations, 120)
        args.rounds = min(args.rounds, 8)
    if args.compare == "fused":
        return bench_fused(args)
    if args.compare == "executors":
        return bench_executors(args)
    return bench_backends(args)


if __name__ == "__main__":
    sys.exit(main())
