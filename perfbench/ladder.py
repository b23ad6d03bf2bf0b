"""The layer ladder: one small measurement per layer of the stack.

Each rung times calls into one module's public functions, so a delta in
an end-to-end row can be localised: scalar game step -> playout kernel
(numpy | compiled) -> tree select/backprop (node | arena) -> one engine
iteration per kind -> scheduler round -> service tick -> cluster wave
-> storm.  Host timings are medians of at least 20 calls after a
warm-up; counts and virtual figures are exact for a seed.  Rungs are
the same whichever workload's traced run they ride along with.
"""

from __future__ import annotations

import os
import shutil
import tempfile
import time
from pathlib import Path
from statistics import median

import numpy as np

from repro.compiled import build_library, run_playouts_tracked_compiled
from repro.core import make_engine
from repro.core.backend import make_forest, make_tree
from repro.games import make_batch_game, make_game
from repro.games.batch import run_playouts_tracked
from repro.gpu import TESLA_C2050, DevicePool, LaunchConfig, VirtualGpu
from repro.mpi import TSUBAME_IB, MpiCluster
from repro.rng import BatchXorShift128Plus, XorShift64Star
from repro.serve import (
    ClusterRouter,
    FusedBatcher,
    HashRing,
    JournalWriter,
    ResultCache,
    SearchService,
    TraceConfig,
    WorkloadConfig,
    cache_key_for,
    make_trace,
    make_workload,
)
from repro.util.clock import Clock
from repro.util.profile import NULL_PROFILER
from repro.util.seeding import derive_seed

from workloads import PRODUCT, WORKLOADS

GAMES = ("reversi", "connect4", "tictactoe")

#: One fixed small shape per engine kind, on the product stack.
ENGINE_SHAPES = {
    "sequential": "sequential",
    "leaf": "leaf:2x64",
    "root": "root:8",
    "block": "block:8x32",
    "hybrid": "hybrid:8x32",
    "tree_wuct": "tree:4@wuct",
    "pipeline": "pipeline:4",
    "multigpu": "multigpu:2x8x32",
}


def _walk(game, plies: int) -> list:
    """The first-legal-move line from the initial position."""
    states = [game.initial_state()]
    for _ in range(plies):
        state = states[-1]
        if game.is_terminal(state):
            break
        states.append(game.apply(state, game.legal_moves(state)[0]))
    return states


def _cold_build_s(build_dir: Path) -> float:
    """Compile the kernel library into an empty cache directory."""
    scratch = tempfile.mkdtemp(prefix="cold-", dir=build_dir)
    saved = os.environ.get("REPRO_COMPILED_CACHE")
    os.environ["REPRO_COMPILED_CACHE"] = scratch
    try:
        t0 = time.perf_counter()
        built = build_library()
        elapsed = time.perf_counter() - t0
    finally:
        if saved is None:
            del os.environ["REPRO_COMPILED_CACHE"]
        else:
            os.environ["REPRO_COMPILED_CACHE"] = saved
        shutil.rmtree(scratch, ignore_errors=True)
    if built is None:
        raise RuntimeError("cold build of the playout kernels failed")
    return elapsed


class Ladder:
    """All rungs for one seed.  ``quick`` cuts every call count to a
    handful (the self-test's tiny size): same names, noisy values."""

    def __init__(self, seed: int, build_dir: Path, quick: bool = False):
        self.seed = seed
        self.build_dir = build_dir
        self.quick = quick
        build_dir.mkdir(parents=True, exist_ok=True)

    def n(self, count: int) -> int:
        """``count`` repetitions, or a token few in quick mode."""
        return max(1, count // 10) if self.quick else count

    def timed(self, fn, calls: int = 20, warmup: int = 2) -> float:
        """Median seconds of ``calls`` calls to ``fn`` after a warm-up."""
        for _ in range(min(warmup, self.n(warmup))):
            fn()
        samples = []
        for _ in range(self.n(calls)):
            t0 = time.perf_counter()
            fn()
            samples.append(time.perf_counter() - t0)
        return median(samples)

    def run(self) -> dict:
        """Every rung, as ``metric name -> value``."""
        out = {}
        for layer in (
            self.games,
            self.rng,
            self.playouts,
            self.trees,
            self.engines,
            self.gpu,
            self.scheduler,
            self.service,
            self.cluster,
            self.cache,
            self.storm,
            self.journal,
            self.mpi,
            self.profile,
        ):
            out.update(layer())
        return out

    # -- games, rng, playout kernels -----------------------------------------

    def games(self) -> dict:
        out = {}
        for name in GAMES:
            game = make_game(name)
            state = game.initial_state()
            rng = XorShift64Star(self.seed)
            out[f"games.{name}.playout_us"] = (
                self.timed(lambda: game.playout(state, rng), calls=40) * 1e6
            )
        game = make_game("reversi")
        line = _walk(game, 24)[:-1]

        def expand_line():
            for state in line:
                game.apply(state, game.legal_moves(state)[0])

        out["games.reversi.expand_step_us"] = (
            self.timed(expand_line, calls=40) / len(line) * 1e6
        )
        return out

    def rng(self) -> dict:
        seed = self.seed
        rng = BatchXorShift128Plus(4096, seed)
        return {
            "rng.batch_next_u64_ns_per_lane.w4096": (
                self.timed(rng.next_u64, calls=200) / 4096 * 1e9
            ),
            # One stream family per launch: what a 16-lane storm tick pays.
            "rng.for_lanes_us": (
                self.timed(
                    lambda: BatchXorShift128Plus.for_lanes(seed, 0, 16),
                    calls=200,
                )
                * 1e6
            ),
        }

    def _playout_rate(self, runner, game_name: str, width: int, calls=20):
        """(playouts per host second, the timed launch callable)."""
        bg = make_batch_game(game_name)
        state = make_game(game_name).initial_state()
        seed = self.seed

        def launch():
            return runner(
                bg,
                bg.make_batch([state], width),
                BatchXorShift128Plus(width, seed),
            )

        return width / self.timed(launch, calls=calls), launch

    def playouts(self) -> dict:
        out = {}
        numpy_rate, _ = self._playout_rate(run_playouts_tracked, "reversi", 1024)
        out["games.batch.numpy_playouts_per_s.reversi.w1024"] = numpy_rate
        compiled = run_playouts_tracked_compiled
        for width in (128, 1024, 8192):
            rate, launch = self._playout_rate(compiled, "reversi", width)
            out[f"compiled.playouts_per_s.reversi.w{width}"] = rate
            if width == 1024:
                out["compiled.steps_per_playout.reversi"] = float(
                    launch().finish_steps.mean()
                )
        for name in ("connect4", "tictactoe"):
            rate, _ = self._playout_rate(compiled, name, 1024)
            out[f"compiled.playouts_per_s.{name}.w1024"] = rate
        one_lane, _ = self._playout_rate(compiled, "reversi", 1, calls=200)
        out["compiled.call_overhead_us"] = 1e6 / one_lane
        # Base: the NumPy lockstep driver at the same width and seed.
        out["compiled.speedup_vs_numpy.reversi.w1024"] = (
            out["compiled.playouts_per_s.reversi.w1024"] / numpy_rate
        )
        out["compiled.cold_build_s"] = _cold_build_s(self.build_dir)
        return out

    # -- trees and engines ---------------------------------------------------

    def trees(self) -> dict:
        game = make_game("reversi")
        state = game.initial_state()
        out = {}

        # 256-tree forest in the regime search_tree runs in (round 100+).
        first, last = (10, 14) if self.quick else (100, 130)
        forest = make_forest(
            "arena",
            game,
            state,
            [XorShift64Star(self.seed + b) for b in range(256)],
        )
        winners = np.ones((256, 1), dtype=np.int8)
        select_s, backprop_s = [], []
        for round_ in range(last):
            t0 = time.perf_counter()
            leaves, _ = forest.select_expand_all()
            t1 = time.perf_counter()
            forest.backprop_block(leaves, 1, winners)
            t2 = time.perf_counter()
            if round_ >= first:
                select_s.append(t1 - t0)
                backprop_s.append(t2 - t1)
        out["core.arena.select_expand_all_us.f256"] = median(select_s) * 1e6
        out["core.arena.backprop_block_us.f256"] = median(backprop_s) * 1e6

        skip = self.n(200)
        for backend, key in (
            ("arena", "core.arena.select_expand_us"),
            ("node", "core.tree.select_expand_us"),
        ):
            tree = make_tree(backend, game, state, XorShift64Star(self.seed))
            samples = []
            for _ in range(skip + self.n(1000)):
                t0 = time.perf_counter()
                node, _ = tree.select_expand()
                samples.append(time.perf_counter() - t0)
                tree.backprop_winner(node, 1)
            out[key] = median(samples[skip:]) * 1e6
            if backend == "arena":
                out["core.arena.nodes_per_s"] = (
                    tree.node_count - 1
                ) / sum(samples)
        return out

    def engines(self) -> dict:
        game = make_game("reversi")
        state = game.initial_state()
        out = {}
        for label, shape in ENGINE_SHAPES.items():
            spec = f"{shape}{PRODUCT.suffix()}"

            def iteration_s():
                engine = make_engine(
                    spec, game, self.seed, max_iterations=self.n(24)
                )
                t0 = time.perf_counter()
                result = engine.search(state, 1e9)
                return (time.perf_counter() - t0) / result.iterations

            iteration_s()
            out[f"core.engine.iter_ms.{label}"] = (
                median(iteration_s() for _ in range(self.n(5))) * 1e3
            )
        return out

    # -- devices and scheduler -----------------------------------------------

    def gpu(self) -> dict:
        state = make_game("reversi").initial_state()
        config = LaunchConfig(8, 128)
        gpu = VirtualGpu(
            TESLA_C2050, Clock(), "reversi", self.seed, playout="compiled"
        )
        bg = make_batch_game("reversi")
        rng = BatchXorShift128Plus(config.total_threads, self.seed)

        def bare():
            run_playouts_tracked_compiled(
                bg, bg.make_batch([state], config.total_threads), rng
            )

        # Paired differences: host drift hits both calls of a pair alike.
        extra_s = []
        for _ in range(self.n(60)):
            t0 = time.perf_counter()
            gpu.run_playouts([state], config)
            t1 = time.perf_counter()
            bare()
            extra_s.append((t1 - t0) - (time.perf_counter() - t1))
        pool = DevicePool((TESLA_C2050,) * 2, Clock())

        def lease_cycle():
            pool.synchronize(pool.launch("ladder", 1e-6))

        return {
            # Base: the bare compiled kernel call at the same width.
            "gpu.timing_model_us_per_launch": median(extra_s) * 1e6,
            "gpu.pool.lease_cycle_us": (
                self.timed(lease_cycle, calls=200) * 1e6
            ),
        }

    def scheduler(self) -> dict:
        states = {g: make_game(g).initial_state() for g in GAMES}
        out = {}
        for tenants in (8, 32, 128):
            pool = DevicePool((TESLA_C2050,) * 4, Clock())
            batcher = FusedBatcher(pool, self.seed, playout="compiled")
            demand = {g: [states[g]] * tenants for g in GAMES}
            spans = {
                (g, t): (g, t, t + 1) for g in GAMES for t in range(tenants)
            }

            def tick():
                _, launches = batcher.execute_demand(demand, spans)
                for launch in launches:
                    pool.synchronize(launch.lease)

            out[f"serve.scheduler.execute_demand_ms.t{tenants}"] = (
                self.timed(tick) * 1e3
            )
            pool.assert_drained()
        return out

    # -- serving -------------------------------------------------------------

    def service(self) -> dict:
        out = {}
        for tenants in (8, 32, 128):
            requests = make_workload(
                WorkloadConfig(
                    n_requests=tenants,
                    seed=self.seed,
                    budget_scale=0.25,
                    backend=PRODUCT.backend,
                    playout=PRODUCT.playout,
                )
            )

            def tick_s():
                service = SearchService(
                    n_devices=4,
                    max_active=tenants,
                    seed=self.seed,
                    backend=PRODUCT.backend,
                    playout=PRODUCT.playout,
                    fusion=PRODUCT.fusion,
                )
                service.submit_all(requests)
                t0 = time.perf_counter()
                service.run()
                return (time.perf_counter() - t0) / service.ticks

            tick_s()
            out[f"serve.service.tick_ms.t{tenants}"] = (
                median(tick_s() for _ in range(self.n(3))) * 1e3
            )
        return out

    def cluster(self) -> dict:
        requests = make_workload(
            WorkloadConfig(
                n_requests=48,
                seed=self.seed,
                budget_scale=0.125,
                deadline_s=None,
                position_pool=256,
                backend=PRODUCT.backend,
                playout=PRODUCT.playout,
            )
        )
        out = {}
        virt_rate = {}
        for shards in (1, 4, 8):

            def wave_s():
                cluster = ClusterRouter(
                    n_shards=shards,
                    seed=self.seed,
                    cache=True,
                    n_devices=2,
                    max_active=4,
                    enforce_deadlines=False,
                    backend=PRODUCT.backend,
                    playout=PRODUCT.playout,
                    fusion=PRODUCT.fusion,
                )
                cluster.submit_all(requests)
                t0 = time.perf_counter()
                cluster.run()
                elapsed = time.perf_counter() - t0
                virt_rate[shards] = cluster.report().requests_per_s
                return elapsed / len(requests)

            wave_s()
            out[f"serve.cluster.wave_ms_per_request.s{shards}"] = (
                median(wave_s() for _ in range(self.n(3))) * 1e3
            )
        # Base: the same 48 requests on a 1-shard cluster.
        out["serve.cluster.virt_scaling.s4"] = virt_rate[4] / virt_rate[1]

        ring = HashRing(4, seed=derive_seed(self.seed, "ring"))
        game = make_game("reversi")
        line = _walk(game, 40)

        def route():
            for state in line:
                ring.shard_for(
                    derive_seed(game.zobrist_key(state), "reversi")
                )

        out["serve.cluster.route_us"] = (
            self.timed(route, calls=40) / len(line) * 1e6
        )
        return out

    def cache(self) -> dict:
        game = make_game("tictactoe")
        state = game.initial_state()
        result = make_engine("sequential", game, self.seed).search(
            state, 0.0005
        )
        keys = [
            cache_key_for(game, state, "sequential", 0.001 + i * 1e-6)
            for i in range(1024)
        ]
        cache = ResultCache()
        cursor = iter(range(10**9))

        def insert():
            cache.insert(keys[next(cursor) % 1024], state, result, now_s=0.0)

        # Fill every key exactly once before any lookup is timed.
        for _ in range(1024 - self.n(1024)):
            insert()
        insert_s = self.timed(insert, calls=1024, warmup=0)

        def lookup():
            cache.lookup(keys[next(cursor) % 1024], 0.0)

        return {
            "serve.cache.lookup_us": self.timed(lookup, calls=1024) * 1e6,
            "serve.cache.insert_us": insert_s * 1e6,
        }

    def storm(self) -> dict:
        config = TraceConfig(base_rate=2000.0, horizon_s=0.5, seed=self.seed)
        arrivals = len(make_trace(config))
        storm = WORKLOADS["storm_retry"]
        inputs = storm.inputs(self.seed, PRODUCT, reduced=True)

        def storm_s():
            service = storm.system(inputs, self.seed, PRODUCT, reduced=True)
            t0 = time.perf_counter()
            storm.run(service)
            return time.perf_counter() - t0

        storm_s()
        return {
            "serve.overload.make_trace_ms_per_karrival": (
                self.timed(lambda: make_trace(config)) / arrivals * 1e6
            ),
            "serve.storm.host_ms_per_arrival": (
                median(storm_s() for _ in range(self.n(5)))
                / len(inputs)
                * 1e3
            ),
        }

    def journal(self) -> dict:
        scratch = Path(tempfile.mkdtemp(prefix="journal-", dir=self.build_dir))
        kwargs = dict(
            n_devices=2,
            max_active=64,
            seed=self.seed,
            backend=PRODUCT.backend,
            playout=PRODUCT.playout,
        )
        requests = make_workload(
            WorkloadConfig(
                n_requests=64,
                seed=self.seed,
                games=("tictactoe",),
                engines=("sequential",),
                budget_scale=0.1,
                deadline_s=None,
            )
        )
        try:
            writer = JournalWriter(scratch / "append.journal")
            cursor = iter(range(10**9))
            try:
                append_s = self.timed(
                    lambda: writer.submit(requests[next(cursor) % 64]),
                    calls=200,
                )
            finally:
                writer.close()

            path = scratch / "run.journal"
            service = SearchService(journal=path, **kwargs)
            service.submit_all(requests)
            try:
                service.run()
            finally:
                service.journal.close()

            def recover():
                SearchService.recover(path, **kwargs).journal.close()

            recover_s = self.timed(recover)
        finally:
            shutil.rmtree(scratch, ignore_errors=True)
        return {
            "serve.journal.append_us": append_s * 1e6,
            "serve.journal.recover_ms.n64": recover_s * 1e3,
        }

    # -- mpi, profiler -------------------------------------------------------

    def mpi(self) -> dict:
        values = [np.ones(65)] * 16
        cluster = MpiCluster(16, TSUBAME_IB, seed=self.seed)
        cluster.allreduce(values, op="sum")
        return {
            "mpi.allreduce_host_us.r16": (
                self.timed(
                    lambda: MpiCluster(
                        16, TSUBAME_IB, seed=self.seed
                    ).allreduce(values, op="sum"),
                    calls=50,
                )
                * 1e6
            ),
            "mpi.allreduce_virt_us.r16": cluster.elapsed * 1e6,
        }

    def profile(self) -> dict:
        loops = self.n(100_000)

        def null_phases():
            for _ in range(loops):
                with NULL_PROFILER.phase("x"):
                    pass

        return {
            "util.profile.null_phase_ns": (
                self.timed(null_phases) / loops * 1e9
            )
        }
