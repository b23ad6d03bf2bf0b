"""Gates on the kernels, the tree stores and the serving stack.

The tree-store and block-launch gates (``-k "tree or forest or
block_launch"``): the batched service tick against the per-tenant loop,
one launch from an arena's leaf columns against the list-of-states
launch, the two kernel bodies, every block worker against the caller
alone, and a launch on a host that took the helpers' cores away.

The three stack gates at the end (``-k backends`` / ``executors`` /
``fused``) each end in a ``headline:`` entry of what they measured.
``backends``: block-parallel iterations/s, ``arena`` faster than
``node``.  ``executors``: the full backend x playout grid, compiled
faster than NumPy.  ``fused``: the combined serving stack -- fused
cross-tenant launches + compiled playouts -- against the unfused NumPy
baseline.  Every gate asserts bit-identical answers before any speed;
without a C toolchain the compiled cells run the NumPy fallback,
identity is still asserted and the speed halves skip.
"""

import os
import subprocess
import sys
import time
from functools import partial

import pytest

from repro.compiled import (
    block_workers,
    compiled_available,
    kernel_body,
    launch_compiled,
    unavailable_reason,
)
from repro.compiled.build import (
    KERNEL_BODIES,
    pinned_block_workers,
    pinned_kernel_body,
)
from repro.core.arena import backprop_winners_many, select_round_many
from repro.core.backend import make_forest
from repro.games import make_batch_game, make_game
from repro.gpu import TESLA_C2050, DevicePool, LaunchConfig, VirtualGpu
from repro.harness.ablations import BackendConfig, run_backend_ablation
from repro.harness.common import resolve_tier
from repro.rng import XorShift64Star
from repro.serve import FusedBatcher, LaneBatcher
from repro.util.clock import Clock
from repro.util.tables import format_table

#: node+compiled must clear this multiple of node+numpy's iterations/s.
EXECUTORS_THRESHOLD = 1.5
#: fused+compiled must clear this multiple of unfused+numpy's rounds/s.
FUSED_THRESHOLD = 5.0
#: The fused gate's demand: this many lanes per game per scheduler
#: round -- the widths real service ticks carry.
FUSED_GAMES = ("reversi", "connect4", "tictactoe")
FUSED_LANES = 128
FUSED_SEED = 85_2011
#: The AVX2 + BMI2 kernel body must clear this multiple of the
#: portable one's speed on ``search_block``'s launch.
BODIES_THRESHOLD = 1.3
#: Every block worker must clear this multiple of the caller alone's
#: speed on ``search_block``'s launch ...
WORKERS_THRESHOLD = 1.5
#: ... unless two CPU-bound processes side by side take more than this
#: multiple of one's time: then the host has no second core to give.
PROBE_LIMIT = 1.3
#: With every thread on one CPU, a launch may cost at most this multiple
#: of the caller alone's.
LOST_CORE_LIMIT = 1.15
#: A service tick's batched tree work must clear this multiple of the
#: per-tenant loop's speed, over ``TICK_TENANTS`` ``root:8`` tenants
#: of each of ``FUSED_GAMES``.
TICK_THRESHOLD = 1.3
TICK_TENANTS = 50


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
def test_micro_gpu_block_launch(blocks, tpb):
    """One kernel launch from an arena's leaves -- columns in, no state
    built -- at ``search_tree``'s and ``search_block``'s shapes; equal to
    the list-of-states launch on a twin device."""
    forest, leaves = arena_leaves(blocks)
    config = LaunchConfig(blocks, tpb)
    gpu, twin = (
        VirtualGpu(TESLA_C2050, Clock(), "reversi", 3, playout="compiled")
        for _ in range(2)
    )
    result = gpu.run_playouts(forest.positions_of(leaves), config)
    want = twin.run_playouts([forest.state_of(leaf) for leaf in leaves], config)
    assert result.winners.tolist() == want.winners.tolist()
    assert result.finish_steps.tolist() == want.finish_steps.tolist()
    assert result.block_steps.tolist() == want.block_steps.tolist()
    assert result.timing == want.timing and gpu.clock.now == twin.clock.now


def time_search_block_launch(pins, rounds):
    """``search_block``'s launch -- Reversi 112 x 64 from an arena's
    leaves -- under each of ``pins`` (label -> context manager factory)
    in turn, interleaved: the fastest launch of each in ms (a shared
    host only ever adds time).  Every launch writes the same winners and
    finish steps."""
    forest, leaves = arena_leaves(112)
    positions = forest.positions_of(leaves)
    bg = make_batch_game("reversi")
    labels = list(pins)
    seconds = {label: [] for label in labels}
    for r in range(rounds):
        outputs = []
        for label in labels if r % 2 else labels[::-1]:
            with pins[label]():
                t0 = time.perf_counter()
                out = launch_compiled(
                    bg, positions, r, 0, 64, workers=True
                )
                seconds[label].append(time.perf_counter() - t0)
            outputs.append([column.tobytes() for column in out])
        assert outputs.count(outputs[0]) == len(labels), f"{labels} disagree"
    return {label: 1e3 * min(v) for label, v in seconds.items()}


def test_micro_gpu_block_launch_bodies(headline):
    """``search_block``'s launch on each kernel body in turn:
    byte-identical, and the AVX2 + BMI2 body at least
    ``BODIES_THRESHOLD`` times the portable one's speed.  Skips where
    the loading CPU does not pick the fast body."""
    portable, fast = KERNEL_BODIES
    if kernel_body() != fast:
        pytest.skip(f"the loading CPU runs the {kernel_body()} kernel body")
    ms = time_search_block_launch(
        {body: partial(pinned_kernel_body, body) for body in KERNEL_BODIES},
        15 if resolve_tier() == "quick" else 31,
    )
    speedup = ms[portable] / ms[fast]
    print(
        f"\nReversi 112x64 launch: {portable} {ms[portable]:.2f} ms, "
        f"{fast} {ms[fast]:.2f} ms, {speedup:.2f}x"
    )
    headline.append(f"{fast}/{portable} launch {speedup:.2f}x")
    assert speedup >= BODIES_THRESHOLD


def time_worker_counts(counts, rounds):
    """:func:`time_search_block_launch` at each of ``counts`` block
    workers."""
    return time_search_block_launch(
        {n: partial(pinned_block_workers, n) for n in counts}, rounds
    )


#: One CPU-bound process of :func:`two_process_probe`: prints the
#: seconds its loop took.
PROBE_LOOP = (
    "import time\n"
    "t0 = time.perf_counter()\n"
    "x = 0\n"
    "for i in range(3_000_000):\n"
    "    x += i\n"
    "print(time.perf_counter() - t0)\n"
)


def two_process_probe() -> float:
    """How many times one CPU-bound process's time two of them take
    side by side (fastest of three interleaved tries each): ≈ 1 where
    the host gives this process's affinity mask a second core, ≈ 2
    where it does not."""

    def side_by_side(n):
        children = [
            subprocess.Popen(
                [sys.executable, "-c", PROBE_LOOP],
                stdout=subprocess.PIPE,
                text=True,
            )
            for _ in range(n)
        ]
        return max(
            float(child.communicate(timeout=120)[0]) for child in children
        )

    tries = [(side_by_side(1), side_by_side(2)) for _ in range(3)]
    return min(pair for _, pair in tries) / min(one for one, _ in tries)


def require_workers() -> int:
    """The block workers of this process; skips on a single one."""
    require_compiled()
    workers = block_workers()
    if workers < 2:
        pytest.skip("one CPU in this process's affinity mask")
    return workers


def test_micro_gpu_block_launch_workers(headline):
    """``search_block``'s launch on the caller alone and on every block
    worker: byte-identical, and every worker at least
    ``WORKERS_THRESHOLD`` times the caller alone's speed (fastest of
    interleaved launches).  Skips with a single worker; the speed half
    skips, saying why, where a two-process probe reads above
    ``PROBE_LIMIT``."""
    workers = require_workers()
    rounds = 15 if resolve_tier() == "quick" else 31
    ms = time_worker_counts((1, workers), rounds)
    speedup = ms[1] / ms[workers]
    print(
        f"\nReversi 112x64 launch: 1 worker {ms[1]:.2f} ms, "
        f"{workers} workers {ms[workers]:.2f} ms, {speedup:.2f}x"
    )
    probe = two_process_probe()
    print(f"two-process probe {probe:.2f}x")
    if probe > PROBE_LIMIT:
        pytest.skip(
            f"two CPU-bound processes take {probe:.2f}x one's time: this "
            f"host does not give the second core"
        )
    headline.append(
        f"{workers}-worker/1-worker launch {speedup:.2f}x "
        f"(probe {probe:.2f}x)"
    )
    assert speedup >= WORKERS_THRESHOLD


def test_micro_gpu_block_launch_lost_core(headline):
    """Once the pool has started, every thread of the process is pinned
    to one CPU -- a host that takes the helpers' cores away.  A launch on
    every worker then costs at most ``LOST_CORE_LIMIT`` times the caller
    alone's: the caller never waits on a helper that holds no block.
    The threads' masks are restored afterwards."""
    workers = require_workers()  # starts the pool
    tasks = [int(tid) for tid in os.listdir("/proc/self/task")]
    masks = {tid: os.sched_getaffinity(tid) for tid in tasks}
    cpu = min(os.sched_getaffinity(0))
    try:
        for tid in tasks:
            os.sched_setaffinity(tid, {cpu})
        ms = time_worker_counts((1, workers), 15)
    finally:
        for tid, mask in masks.items():
            os.sched_setaffinity(tid, mask)
    cost = ms[workers] / ms[1]
    print(
        f"\nReversi 112x64 launch on one CPU: 1 worker {ms[1]:.2f} ms, "
        f"{workers} workers {ms[workers]:.2f} ms, {cost:.2f}x"
    )
    headline.append(f"lost-core launch {cost:.2f}x the caller alone")
    assert cost <= LOST_CORE_LIMIT


# --------------------------------------------------------------------
# Stack gates: identity first, speed second.
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

