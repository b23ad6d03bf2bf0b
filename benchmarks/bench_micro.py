"""Microbenchmarks of the substrates the figures stand on.

These use pytest-benchmark's statistics properly (many rounds): batched
playout throughput, the scalar playout fast path, tree operations (on
both the pointer-tree and arena backends), the RNG, and simulated-MPI
collectives.

The three stack gates at the end are the CI benchmark-smoke gates,
each written once as a test; ``python benchmarks/bench_micro.py
[--backends | --executors | --fused] [--smoke]`` runs one through
pytest (bench_serve.py's ``main``: ``--smoke`` pins the quick tier, no
flag means ``--backends``) and ends with a ``headline:`` line of what
it measured.  ``--backends``: block-parallel iterations/s, ``arena``
faster than ``node``.  ``--executors``: the full backend x playout
grid, compiled faster than NumPy.  ``--fused``: the combined serving
stack -- fused cross-tenant launches + compiled playouts -- against
the unfused NumPy baseline.  Every gate asserts bit-identical answers
before any speed; without a C toolchain the compiled cells run the
NumPy fallback, identity is still asserted and the speed halves skip.
"""

import sys
import time

import numpy as np
import pytest

from repro.compiled import (
    block_compiled,
    compiled_available,
    kernel_body,
    unavailable_reason,
)
from repro.compiled.build import KERNEL_BODIES, pinned_kernel_body
from repro.core.arena import backprop_winners_many, select_round_many
from repro.core.backend import make_forest, make_tree
from repro.core.tree import SearchTree
from repro.games import BatchReversi, Reversi, make_batch_game, make_game
from repro.games.batch import run_playouts_tracked, select_random_bit
from repro.gpu import TESLA_C2050, DevicePool, LaunchConfig, VirtualGpu
from repro.harness.ablations import BackendConfig, run_backend_ablation
from repro.harness.common import resolve_tier
from repro.mpi import MpiCluster, TSUBAME_IB
from repro.rng import BatchXorShift128Plus, XorShift64Star
from repro.serve import FusedBatcher, LaneBatcher
from repro.util.clock import Clock
from repro.util.tables import format_table

try:
    from benchmarks.bench_serve import main
except ImportError:  # standalone `python benchmarks/bench_micro.py`
    from bench_serve import main

#: node+compiled must clear this multiple of node+numpy's iterations/s.
EXECUTORS_THRESHOLD = 1.5
#: fused+compiled must clear this multiple of unfused+numpy's rounds/s.
FUSED_THRESHOLD = 5.0
#: The fused gate's demand: this many lanes per game per scheduler
#: round -- the widths real service ticks carry.
FUSED_GAMES = ("reversi", "connect4", "tictactoe")
FUSED_LANES = 128
FUSED_SEED = 85_2011
#: The popcnt + BMI2 kernel body must clear this multiple of the
#: portable one's speed on ``search_block``'s launch.
BODIES_THRESHOLD = 1.3
#: A service tick's batched tree work must clear this multiple of the
#: per-tenant loop's speed, over ``TICK_TENANTS`` ``root:8`` tenants
#: of each of ``FUSED_GAMES``.
TICK_THRESHOLD = 1.3
TICK_TENANTS = 50


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


def tenant_forests(seed):
    """``TICK_TENANTS`` ``root:8`` arenas of each of ``FUSED_GAMES``,
    each from its game's opening: one service tick's tenants."""
    return [
        make_forest(
            "arena",
            game,
            game.initial_state(),
            [XorShift64Star(seed + 8 * j + t) for t in range(8)],
            1.0,
        )
        for game in map(make_game, FUSED_GAMES)
        for j in range(TICK_TENANTS)
    ]


def test_micro_tenant_forest_tick_batched(headline):
    """The tree work of a service tick over 150 ``root:8`` tenants, two
    ways: batched -- one ``select_round_many`` (a kernel call per game)
    and one ``backprop_winners_many``, what the tick runs -- and as a
    loop of each tenant's own ``select_round`` / ``backprop_winners``.
    Identical leaves, depths and root statistics; the batched tick at
    least ``TICK_THRESHOLD`` times as fast (fastest of interleaved
    ticks).  Without the kernels both run the per-tenant bodies:
    identity only."""
    trees = list(range(8))
    loop, batched = tenant_forests(1), tenant_forests(1)
    seconds = {"loop": [], "batched": []}
    for r in range(30 if resolve_tier() == "quick" else 60):
        winners = [(r + t) % 3 - 1 for t in trees]
        t0 = time.perf_counter()
        want = [forest.select_round(trees)[:2] for forest in loop]
        for forest, (refs, _) in zip(loop, want):
            forest.backprop_winners(refs, winners)
        t1 = time.perf_counter()
        answers = select_round_many(batched, [trees] * len(batched))
        got = [answer[:2] for answer in answers]
        backprop_winners_many(
            batched, [refs for refs, _ in got], [winners] * len(got)
        )
        t2 = time.perf_counter()
        seconds["loop"].append(t1 - t0)
        seconds["batched"].append(t2 - t1)
        assert got == want, "the batched tick selects other leaves"
    assert [f.root_stats_of() for f in batched] == [
        f.root_stats_of() for f in loop
    ]
    ms = {way: 1e3 * min(v) for way, v in seconds.items()}
    speedup = ms["loop"] / ms["batched"]
    print(
        f"\n{len(loop)}-tenant tick: loop {ms['loop']:.2f} ms, "
        f"batched {ms['batched']:.2f} ms, {speedup:.2f}x"
    )
    require_compiled()
    headline.append(f"batched/per-tenant tick {speedup:.2f}x")
    assert speedup >= TICK_THRESHOLD


def arena_leaves(blocks):
    """A Reversi arena of ``blocks`` trees six rounds into a search from
    a mid-game root, and the leaves of its next round."""
    game = make_game("reversi")
    state = game.initial_state()
    for ply in range(20):  # a mid-game root
        state = game.apply(state, game.legal_moves(state)[ply % 3 - 1])
    rngs = [XorShift64Star(b) for b in range(blocks)]
    forest = make_forest("arena", game, state, rngs, 1.0)
    for r in range(6):
        leaves, _ = forest.select_expand_all()
        forest.backprop_winners(leaves, [(r + b) % 3 - 1 for b in range(blocks)])
    return forest, leaves


@pytest.mark.parametrize("blocks,tpb", [(256, 1), (112, 64)])
def test_micro_gpu_block_launch(benchmark, blocks, tpb):
    """One kernel launch from an arena's leaves -- columns in, no state
    built -- at ``search_tree``'s and ``search_block``'s shapes; equal to
    the list-of-states launch on a twin device."""
    forest, leaves = arena_leaves(blocks)
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


def test_micro_gpu_block_launch_bodies(headline):
    """``search_block``'s launch -- Reversi 112 x 64 from an arena's
    leaves -- on each kernel body in turn: byte-identical winners,
    scores, finish steps and generator, and the popcnt + BMI2 body at
    least ``BODIES_THRESHOLD`` times the portable one's speed (fastest
    of interleaved launches: a shared host only ever adds time).  Skips
    where the loading CPU does not pick the fast body."""
    portable, fast = KERNEL_BODIES
    if kernel_body() != fast:
        pytest.skip(f"the loading CPU runs the {kernel_body()} kernel body")
    forest, leaves = arena_leaves(112)
    positions = forest.positions_of(leaves)
    bg = make_batch_game("reversi")
    seconds = {portable: [], fast: []}
    for r in range(15 if resolve_tier() == "quick" else 31):
        outputs = []
        for body in (portable, fast) if r % 2 else (fast, portable):
            rng = BatchXorShift128Plus(112 * 64, r)
            with pinned_kernel_body(body):
                t0 = time.perf_counter()
                out = block_compiled(bg, positions, 64, rng)
                seconds[body].append(time.perf_counter() - t0)
            _, s0, s1 = rng.getstate()
            columns = (out.winners, out.scores, out.finish_steps, s0, s1)
            outputs.append([column.tobytes() for column in columns])
        assert outputs[0] == outputs[1], "the kernel bodies disagree"
    ms = {body: 1e3 * min(v) for body, v in seconds.items()}
    speedup = ms[portable] / ms[fast]
    print(
        f"\nReversi 112x64 launch: {portable} {ms[portable]:.2f} ms, "
        f"{fast} {ms[fast]:.2f} ms, {speedup:.2f}x"
    )
    headline.append(f"{fast}/{portable} launch {speedup:.2f}x")
    assert speedup >= BODIES_THRESHOLD


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
# Stack gates (CI benchmark-smoke): identity first, speed second.
# --------------------------------------------------------------------


def print_grid(result) -> None:
    """The ablation's table, then what each cell's search returned."""
    print()
    print(result.render())
    for cell, res in result.results.items():
        print(
            f"{cell}: iters {res.iterations}, sims {res.simulations}, "
            f"nodes {res.tree_nodes}, move {res.move}"
        )


def require_compiled() -> None:
    """Skip a speed gate no NumPy fallback can pass."""
    if not compiled_available():
        pytest.skip(unavailable_reason())


def test_backends_arena_faster_than_node(headline):
    result = run_backend_ablation(BackendConfig.for_tier())
    print_grid(result)
    for cell, prof in result.phases.items():
        print()
        print(prof.render(title=f"{cell} phases"))
    assert result.identical, "backends disagree"
    headline.append(f"arena/node {result.speedup:.2f}x")
    assert result.speedup > 1.0, "arena backend not faster than node"


def test_executors_compiled_faster_than_numpy(headline):
    result = run_backend_ablation(BackendConfig.playout_heavy())
    print_grid(result)
    assert result.identical, "executor grid disagrees"
    headline.append("four stack cells identical")
    require_compiled()
    gated = result.speedup_of("node+compiled")
    headline.append(f"node+compiled/node+numpy {gated:.2f}x")
    assert gated >= EXECUTORS_THRESHOLD


def run_fused_rounds(cls, playout: str, rounds: int):
    """``rounds`` merged scheduler rounds of the fixed multi-tenant
    demand on one batcher: (per-round answers, wall seconds, batcher)."""
    states = {g: make_game(g).initial_state() for g in FUSED_GAMES}
    pool = DevicePool((TESLA_C2050,) * 2, Clock())
    batcher = cls(pool, FUSED_SEED, playout=playout)
    per_round = []
    t0 = time.perf_counter()
    for _ in range(rounds):
        demand = {g: [states[g]] * FUSED_LANES for g in FUSED_GAMES}
        answers, _ = batcher.execute_demand(demand)
        per_round.append(answers)
    return per_round, time.perf_counter() - t0, batcher


def test_fused_compiled_stack_faster_than_unfused_numpy(headline):
    """The combined serving stack: fused launches + compiled playouts
    vs one NumPy launch per game, on wall-clock round throughput."""
    rounds = 8 if resolve_tier() == "quick" else 20
    base_answers, base_wall, base = run_fused_rounds(
        LaneBatcher, "numpy", rounds
    )
    fused_answers, fused_wall, fused = run_fused_rounds(
        FusedBatcher, "compiled", rounds
    )
    speedup = base_wall / fused_wall
    rows = [
        (stack, f"{rounds / wall:.1f}", batcher.launch_count)
        for stack, wall, batcher in (
            ("unfused+numpy", base_wall, base),
            ("fused+compiled", fused_wall, fused),
        )
    ]
    print()
    print(
        format_table(
            ("stack", "rounds/s", "launches"),
            rows,
            title=(
                f"combined serving stack: {rounds} rounds x "
                f"{FUSED_LANES} lanes x {len(FUSED_GAMES)} games, "
                f"pad waste {fused.pad_lanes} lanes"
            ),
        )
    )
    assert base_answers == fused_answers, "fused+compiled answers differ"
    headline.append("fused answers identical")
    require_compiled()
    headline.append(f"fused+compiled/unfused+numpy {speedup:.2f}x")
    assert speedup >= FUSED_THRESHOLD


if __name__ == "__main__":  # pragma: no cover
    sys.exit(
        main(__file__, sys.argv[1:], ("fused", "executors", "backends"))
    )
