"""The six named workloads, built and run through the stack's public API.

Every workload pins the product stack (``arena`` tree backend,
``compiled`` playouts, fused batcher) explicitly in its specs and
kwargs, so a later change of defaults cannot silently move what is
measured.  Each has a reduced-size variant that is replayed on the
oracle stack (``node`` + ``numpy`` + unfused): the bit-identity walls
say the two must agree on every search result, and the benchmark
counts a disagreement as a failed operation.

A workload exposes three steps so the runner can time them apart:

``inputs(seed, stack, reduced)``  the generated requests / position,
``system(inputs, seed, stack, reduced)``  engine, service or cluster
with the inputs submitted (inputs + system is what ``setup_s`` times),
``run(system)``  the timed region: the call into the program, nothing
else,
``fold(system, raw)``  what ``run`` returned, checked and folded into an
:class:`Outcome` (outside the timed region: hashing 4096 records is
the benchmark's work, not the program's).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field, replace
from statistics import fmean

from repro.core import make_engine
from repro.games import make_game
from repro.gpu import PoolError
from repro.serve import (
    ClusterRouter,
    FlashCrowd,
    SearchService,
    TraceConfig,
    WorkloadConfig,
    assert_explicit_outcomes,
    class_summary,
    make_trace,
    make_workload,
)
from repro.serve.request import COMPLETED, PRIORITY_CLASSES
from repro.util.seeding import derive_seed

from summary import percentile

#: The paper's sustained C2050 playout rate (gpu/calibration.py).
PAPER_RATE = 8.5e5

#: Seed of the *traffic shape* of the cluster and storm workloads:
#: which pool positions are drawn, where the ring places them, when
#: storm requests arrive and in which class.  Virtual-clock statistics
#: are chaotic in these draws (across trace seeds the storm's p95 flips
#: between two deadline classes, IQR/median 59%; a cluster's elapsed
#: time is its most loaded shard's), far beyond any usable regression
#: bound, so the shape is part of the workload's definition and
#: ``--seed`` drives everything downstream of it: every request's
#: search seed, the services' lane-RNG families, client retry jitter.
TRAFFIC_SEED = 2011


@dataclass(frozen=True)
class Stack:
    """One cell of the backend x executor x batcher grid."""

    backend: str
    playout: str
    fusion: bool

    def suffix(self) -> str:
        return f"@{self.backend}" + (
            "@compiled" if self.playout == "compiled" else ""
        )


PRODUCT = Stack("arena", "compiled", True)
ORACLE = Stack("node", "numpy", False)


def _reseeded(requests, seed: int) -> list:
    """``requests`` with every search seed redrawn from ``seed``."""
    return [
        replace(r, seed=derive_seed(seed, "request", j))
        for j, r in enumerate(requests)
    ]


@dataclass
class Outcome:
    """What one repetition of a workload did."""

    #: Terminal outcomes (records, retries included); 1 for a search.
    requests: int
    #: Playouts actually executed (cache-served answers excluded).
    playouts: int
    virt_elapsed_s: float
    #: Virtual arrival-to-finish latency of every completed request.
    latencies_s: list
    #: Requests that completed inside their deadline (met + degraded).
    good: int
    #: Attainment of the best priority class that carried traffic.
    attainment: float
    #: sha256 over every simulated statistic of the repetition.
    fingerprint: str
    #: Request id -> search result of full-fidelity completions (what
    #: the oracle replay must reproduce).
    results: dict
    #: Exact per-layer counts read off the reports.
    counts: dict = field(default_factory=dict)
    #: Contract violations (each is one failed operation).
    violations: list = field(default_factory=list)
    #: Virtual queue waits of completed requests.
    queue_waits_s: list = field(default_factory=list)

    def virtual_metrics(self) -> dict:
        """The virtual-clock end-to-end metrics (exact per seed)."""
        rate = self.playouts / self.virt_elapsed_s
        return {
            "virt_playouts_per_s": rate,
            "virt_requests_per_s": self.requests / self.virt_elapsed_s,
            "virt_latency_p50_ms": percentile(self.latencies_s, 50) * 1e3,
            "virt_latency_p95_ms": percentile(self.latencies_s, 95) * 1e3,
            "goodput_frac": self.good / self.requests,
            "interactive_attainment": self.attainment,
            "paper_rate_rel_err": abs(rate - PAPER_RATE) / PAPER_RATE,
        }


def _digest(parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(repr(part).encode())
        h.update(b"\0")
    return h.hexdigest()


def _result_key(result) -> tuple:
    """A search result's identity in plain Python numbers (the arena
    hands back NumPy scalars, equal in value but not in ``repr``)."""
    return (
        int(result.move),
        tuple(
            sorted(
                (int(move), float(visits), float(wins))
                for move, (visits, wins) in result.stats.items()
            )
        ),
        int(result.iterations),
        int(result.simulations),
    )


# -- search workloads --------------------------------------------------------


@dataclass
class _SearchSystem:
    engine: object
    state: object
    budget_s: float


@dataclass(frozen=True)
class SearchWorkload:
    """One block-parallel search of the Reversi initial position."""

    name: str
    why: str
    blocks: int
    threads_per_block: int
    budget_s: float
    max_iterations: "int | None" = None
    #: (blocks, threads_per_block, budget_s, max_iterations) of the
    #: reduced-size oracle replay.
    reduced: tuple = (8, 32, 0.01, None)
    oracle_stack: Stack = ORACLE

    def _shape(self, reduced: bool) -> tuple:
        if reduced:
            return self.reduced
        return (
            self.blocks,
            self.threads_per_block,
            self.budget_s,
            self.max_iterations,
        )

    def inputs(self, seed: int, stack: Stack, reduced: bool = False):
        game = make_game("reversi")
        return game, game.initial_state()

    def system(self, inputs, seed: int, stack: Stack, reduced: bool = False):
        game, state = inputs
        blocks, tpb, budget_s, cap = self._shape(reduced)
        engine = make_engine(
            f"block:{blocks}x{tpb}{stack.suffix()}",
            game,
            seed,
            max_iterations=cap,
        )
        return _SearchSystem(engine, state, budget_s)

    def run(self, system: _SearchSystem):
        return system.engine.search(system.state, system.budget_s)

    def fold(self, system: _SearchSystem, result) -> Outcome:
        kernels = result.extras["gpu.kernels"]
        return Outcome(
            requests=1,
            playouts=result.simulations,
            virt_elapsed_s=result.elapsed_s,
            latencies_s=[result.elapsed_s],
            good=1,
            attainment=1.0,
            fingerprint=_digest(
                [
                    _result_key(result),
                    float(result.elapsed_s),
                    int(result.tree_nodes),
                ]
            ),
            results={"search": _result_key(result)},
            counts={
                "gpu.kernels_launched": kernels,
                "gpu.lanes_per_launch_mean": result.simulations / kernels,
                "gpu.utilisation_mean": (
                    system.engine.gpu.stats.busy_seconds / result.elapsed_s
                ),
            },
        )


# -- serving workloads -------------------------------------------------------


def _records_outcome(
    records, virt_elapsed_s: float, counts: dict, violations: list
) -> Outcome:
    """Fold a serving run's records into an :class:`Outcome`."""
    ids = [r.request.request_id for r in records]
    if len(set(ids)) != len(ids):
        violations.append("duplicate request id")
    try:
        assert_explicit_outcomes(records)
    except AssertionError as exc:
        violations.append(f"silent outcome: {exc}")
    completed = [r for r in records if r.status == COMPLETED]
    per_class = class_summary(records)
    best = next(c for c in PRIORITY_CLASSES if c in per_class)
    return Outcome(
        requests=len(records),
        playouts=sum(
            r.result.simulations
            for r in completed
            if not r.extras.get("cache_hit")
        ),
        virt_elapsed_s=virt_elapsed_s,
        latencies_s=[r.latency_s for r in completed],
        good=sum(s.attained for s in per_class.values()),
        attainment=per_class[best].attainment,
        fingerprint=_digest(
            (
                r.request.request_id,
                r.status,
                r.outcome,
                r.degrade_level,
                None if r.latency_s is None else float(r.latency_s),
                None if r.result is None else _result_key(r.result),
            )
            for r in records
        ),
        results={
            r.request.request_id: _result_key(r.result)
            for r in records
            if r.outcome == "met"
        },
        counts=counts,
        violations=violations,
        queue_waits_s=[
            r.queue_wait_s for r in completed if r.queue_wait_s is not None
        ],
    )


def _service_counts(reports) -> dict:
    """Device and scheduler counts over one or more ServiceReports."""
    launches = sum(r.kernel_launches for r in reports)
    lanes = sum(r.kernel_launches * r.mean_lanes_per_launch for r in reports)
    fused = sum(r.fused_launches for r in reports)
    pad = sum(r.fusion_pad_lanes for r in reports)
    tenants = sum(r.fused_launches * r.mean_tenants_per_launch for r in reports)
    return {
        "gpu.kernels_launched": launches,
        "gpu.lanes_per_launch_mean": lanes / launches if launches else 0.0,
        "gpu.utilisation_mean": fmean(
            [u for r in reports for u in r.device_utilization.values()] or [0.0]
        ),
        "serve.scheduler.launches": fused,
        "serve.scheduler.pad_waste_frac": (
            pad / (pad + lanes) if pad + lanes else 0.0
        ),
        "serve.scheduler.tenants_per_launch_mean": (
            tenants / fused if fused else 0.0
        ),
    }


def _fold_service(service: SearchService, records) -> Outcome:
    violations = []
    try:
        service.pool.assert_drained()
    except PoolError as exc:
        violations.append(f"lease leak: {exc}")
    report = service.report()
    counts = _service_counts([report])
    counts.update(
        {
            "serve.overload.level_max": report.peak_overload_level,
            "serve.overload.shed": report.shed,
            "serve.overload.degraded": report.degraded,
            "serve.clients.retry_amplification": (
                report.offered / report.first_tries
            ),
            "serve.clients.budget_denied": report.budget_rejected,
            "serve.clients.breaker_opens": report.breaker_opens,
        }
    )
    return _records_outcome(records, report.elapsed_s, counts, violations)


@dataclass(frozen=True)
class ServeMixedWorkload:
    """Closed batch of the default mixed workload on one service."""

    name: str
    why: str
    n_requests: int = 256
    reduced_requests: int = 12
    budget_scale: float = 0.25
    deadline_s: float = 2.0
    oracle_stack: Stack = ORACLE

    def inputs(self, seed: int, stack: Stack, reduced: bool = False):
        return make_workload(
            WorkloadConfig(
                n_requests=(
                    self.reduced_requests if reduced else self.n_requests
                ),
                seed=seed,
                budget_scale=self.budget_scale,
                # The oracle replay compares results, not timing: no
                # deadline, so no request is cut short on either stack.
                deadline_s=None if reduced else self.deadline_s,
                backend=stack.backend,
                playout=stack.playout,
            )
        )

    def system(self, inputs, seed: int, stack: Stack, reduced: bool = False):
        service = SearchService(
            n_devices=4,
            max_active=64,
            seed=seed,
            backend=stack.backend,
            playout=stack.playout,
            fusion=stack.fusion,
        )
        service.submit_all(inputs)
        return service

    def run(self, service: SearchService):
        return service.run()

    fold = staticmethod(_fold_service)


@dataclass(frozen=True)
class ClusterWorkload:
    """One wave of position-pool traffic through a 4-shard cluster
    with the result cache on."""

    name: str
    why: str
    n_requests: int
    position_pool: int
    position_skew: float
    n_shards: int = 4
    reduced_requests: int = 24
    budget_scale: float = 0.125
    oracle_stack: Stack = ORACLE

    def inputs(self, seed: int, stack: Stack, reduced: bool = False):
        traffic = make_workload(
            WorkloadConfig(
                n_requests=(
                    self.reduced_requests if reduced else self.n_requests
                ),
                seed=TRAFFIC_SEED,
                budget_scale=self.budget_scale,
                deadline_s=None,
                position_skew=self.position_skew,
                position_pool=(
                    min(self.position_pool, 64)
                    if reduced
                    else self.position_pool
                ),
                backend=stack.backend,
                playout=stack.playout,
            )
        )
        return _reseeded(traffic, seed)

    def system(self, inputs, seed: int, stack: Stack, reduced: bool = False):
        cluster = ClusterRouter(
            n_shards=self.n_shards,
            # The router's own seed only places the ring (traffic
            # shape); the shards' lane-RNG seeds follow ``seed``.
            seed=TRAFFIC_SEED,
            shard_overrides={
                i: {"seed": derive_seed(seed, "shard", i)}
                for i in range(self.n_shards)
            },
            cache=True,
            n_devices=2,
            # Shards are deliberately contended.  The oracle replay
            # must not queue: a freed slot is refilled at a service
            # -clock instant, which unfused launches shift, and the
            # tick a request joins decides its lane streams.
            max_active=64 if reduced else 4,
            enforce_deadlines=False,
            backend=stack.backend,
            playout=stack.playout,
            fusion=stack.fusion,
        )
        cluster.submit_all(inputs)
        return cluster

    def run(self, cluster: ClusterRouter):
        return cluster.run()

    def fold(self, cluster: ClusterRouter, records) -> Outcome:
        report = cluster.report()
        counts = _service_counts(
            [r for shard in cluster.shards for r in shard.reports]
        )
        counts.update(
            {
                # Followers coalesced behind an in-flight leader are
                # lookups that hit once the leader lands, so they are
                # already inside the cache's own hit count.
                "serve.cache.hit_rate": report.cache_hit_rate,
                "serve.cache.coalesced": report.coalesced,
                "serve.cache.evictions": report.cache_evictions,
            }
        )
        # Shard services drain their own leases inside run(); a leak
        # raises there and the runner counts the exception.
        return _records_outcome(records, report.elapsed_s, counts, [])


@dataclass(frozen=True)
class StormWorkload:
    """Open-loop flash crowd with retrying clients against the
    defended stack (ladder + retry budget + breakers + throttle): the
    ``RetryStormBenchConfig`` operating point of bench_serve.py."""

    name: str
    why: str
    base_rate: float = 150.0
    horizon_s: float = 1.0
    crowd_start_s: float = 0.1
    crowd_duration_s: float = 0.3
    crowd: float = 10.0
    reduced_horizon_s: float = 0.12
    budget_scale: float = 0.25
    #: Arrivals land at service-clock instants, so launch timing
    #: decides which tick (and so which lane streams) a request joins:
    #: only a stack with the same batcher replays a storm bit for bit.
    #: The oracle therefore keeps fusion and must match the product's
    #: whole fingerprint -- statuses and latencies included.
    oracle_stack: Stack = Stack("node", "numpy", True)

    def inputs(self, seed: int, stack: Stack, reduced: bool = False):
        schedule = make_trace(
            TraceConfig(
                base_rate=self.base_rate,
                horizon_s=(
                    self.reduced_horizon_s if reduced else self.horizon_s
                ),
                seed=TRAFFIC_SEED,
                components=(
                    FlashCrowd(
                        start_s=self.crowd_start_s,
                        duration_s=self.crowd_duration_s,
                        multiplier=self.crowd,
                    ),
                ),
                class_deadline_s=(
                    ("interactive", 0.1),
                    ("standard", 0.2),
                    ("batch", 0.4),
                ),
                workload=WorkloadConfig(
                    seed=TRAFFIC_SEED,
                    engines=("sequential", "root:2"),
                    budget_scale=self.budget_scale,
                    backend=stack.backend,
                    playout=stack.playout,
                ),
            )
        )
        return _reseeded(schedule, seed)

    def system(self, inputs, seed: int, stack: Stack, reduced: bool = False):
        service = SearchService(
            n_devices=2,
            max_active=16,
            max_queue=64,
            seed=seed,
            overload=dict(
                max_level=3, window=16, release=0.6, deescalate_after=3
            ),
            clients=dict(
                retry=dict(
                    kind="exponential",
                    base_s=0.02,
                    cap_s=0.16,
                    jitter=0.3,
                    max_attempts=10,
                    give_up_s=(
                        ("interactive", 2.0),
                        ("standard", 3.0),
                        ("batch", 4.0),
                    ),
                ),
                seed=seed,
                breaker=dict(failure_threshold=5, reset_timeout_s=0.1),
                throttle=dict(k=1.5, window=64),
            ),
            retry_budget=dict(fill_per_first_try=0.1, cap=10.0, initial=2.0),
            backend=stack.backend,
            playout=stack.playout,
            fusion=stack.fusion,
        )
        service.submit_all(inputs)
        return service

    def run(self, service: SearchService):
        return service.run()

    fold = staticmethod(_fold_service)


# -- the registry ------------------------------------------------------------

WORKLOADS = {
    w.name: w
    for w in (
        SearchWorkload(
            name="search_block",
            why=(
                "block:112x64 on Reversi, the paper's per-GPU shape: the "
                "playout kernel is ~89% of host time, so kernel work "
                "shows here and tree work does not"
            ),
            blocks=112,
            threads_per_block=64,
            budget_s=0.2,
        ),
        SearchWorkload(
            name="search_tree",
            why=(
                "block:256x1, the same engine used the opposite way: "
                "256 one-lane trees make select_expand_all ~85% of host "
                "time, so arena work shows here and kernel work does not"
            ),
            blocks=256,
            threads_per_block=1,
            budget_s=1e9,
            max_iterations=60,
            reduced=(16, 1, 1e9, 12),
        ),
        ServeMixedWorkload(
            name="serve_mixed",
            why=(
                "closed batch of 256 mixed requests (3 games x 6 engine "
                "specs) on one 4-device service: the multi-tenant tick "
                "loop with ~200-lane fused launches; no cache, no overload"
            ),
        ),
        ClusterWorkload(
            name="cluster_indep",
            why=(
                "4-shard cluster, 256 requests over a 384-position pool, "
                "skew 0 (7% hits): the cache miss/insert path and shard "
                "scaling under contention; engine-bound"
            ),
            n_requests=256,
            position_pool=384,
            position_skew=0.0,
        ),
        ClusterWorkload(
            name="cluster_skew",
            why=(
                "same cluster, 2048 requests Zipf(1.1) over 16 positions "
                "(~96% hits): the router and cache used as reads, few "
                "engines run; paired with cluster_indep"
            ),
            n_requests=2048,
            position_pool=16,
            position_skew=1.1,
        ),
        StormWorkload(
            name="storm_retry",
            why=(
                "open-loop 10x flash crowd with retrying clients against "
                "ladder + retry budget + breakers + throttle: admission, "
                "class queues, closed-loop clients, many tiny launches"
            ),
        ),
    )
}


def execute(workload, system) -> Outcome:
    """One untimed repetition: run, then fold."""
    return workload.fold(system, workload.run(system))


def oracle_check(workload, seed: int) -> tuple[int, list]:
    """Replay the reduced-size workload on its oracle stack and on the
    product stack; returns (results compared, disagreements)."""
    outcomes = []
    for stack in (workload.oracle_stack, PRODUCT):
        inputs = workload.inputs(seed, stack, reduced=True)
        outcomes.append(
            execute(workload, workload.system(inputs, seed, stack, reduced=True))
        )
    oracle, product = outcomes
    common = sorted(oracle.results.keys() & product.results.keys())
    problems = oracle.violations + product.violations
    if not common:
        problems.append("oracle replay shares no full-fidelity result")
    problems.extend(
        f"oracle disagrees on {rid}"
        for rid in common
        if oracle.results[rid] != product.results[rid]
    )
    if (
        workload.oracle_stack.fusion == PRODUCT.fusion
        and oracle.fingerprint != product.fingerprint
    ):
        problems.append("oracle fingerprint differs from the product's")
    return max(1, len(common)), problems
