"""Storm harness: open-loop overload plus mid-storm faults.

Ties the overload-survival layer together (docs/overload.md): an
open-loop trace (:func:`~repro.serve.overload.make_trace`, typically
with a :class:`~repro.serve.overload.FlashCrowd` several times above
sustainable throughput) is fired at a defended service -- overload
policy, autoscaler -- while an existing
:class:`~repro.faults.FaultPlan` (crashes, corruption, device
outages) strikes mid-storm.  The harness recovers planned crashes
from the write-ahead journal exactly once and reports per-class SLO
attainment, goodput decomposition (met | degraded | shed | rejected |
missed) and MTTR.

Everything is a pure function of the configs' seeds on the virtual
clock: the same storm replays bit-identically, which is how the
tests pin it.

:func:`run_storm` drives one :class:`~repro.serve.service.SearchService`
node; :func:`run_cluster_storm` drives a
:class:`~repro.serve.cluster.ClusterRouter` across *epochs*, resizing
the shard count between epochs with the
:class:`~repro.serve.autoscale.ShardAutoscaler` (consistent hashing
keeps most keys in place across a resize) and optionally crashing a
shard mid-storm.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

from repro.faults import FaultPlan
from repro.serve.autoscale import (
    AutoscalerConfig,
    ShardAutoscaler,
    ShardAutoscalerConfig,
)
from repro.serve.clients import (
    ClientPopulation,
    MetastabilityDetector,
    MetastabilityVerdict,
    RetryBudget,
    post_crowd_attainment,
)
from repro.serve.cluster import (
    ClusterReport,
    ClusterRouter,
    HedgePolicy,
)
from repro.serve.metrics import (
    ClassStats,
    ServiceReport,
    class_summary,
)
from repro.serve.overload import (
    FlashCrowd,
    OverloadPolicy,
    TraceConfig,
    make_trace,
)
from repro.serve.request import (
    RequestRecord,
    SearchRequest,
    TERMINAL_STATUSES,
)
from repro.serve.service import serve


class SilentOutcomeError(AssertionError):
    """A request ended the storm without an explicit terminal
    outcome -- exactly the silent deadline miss the overload layer
    exists to rule out."""


def assert_explicit_outcomes(
    records: "list[RequestRecord]",
) -> None:
    """Every request must end in a terminal status (met / degraded /
    shed / rejected / missed) -- zero silent outcomes."""
    silent = [
        r.request.request_id
        for r in records
        if r.status not in TERMINAL_STATUSES
    ]
    if silent:
        raise SilentOutcomeError(
            f"{len(silent)} request(s) ended without an explicit "
            f"outcome: {silent[:5]}"
        )


@dataclass(frozen=True)
class StormConfig:
    """One single-node storm: trace + defenses + faults."""

    trace: TraceConfig = field(default_factory=TraceConfig)
    n_devices: int = 2
    max_active: int = 32
    max_queue: int = 128
    seed: int = 0
    #: Overload policy (``True`` -> defaults, ``None`` -> undefended).
    overload: "OverloadPolicy | dict | bool | None" = True
    #: Device-fleet autoscaler (``None`` -> fixed fleet).
    autoscale: "AutoscalerConfig | dict | bool | None" = None
    #: Fault plan string striking mid-storm (``crash=...`` needs a
    #: ``journal`` to recover from).
    faults: "str | FaultPlan | None" = None
    journal: "str | Path | None" = None
    #: Closed-loop client population (repro.serve.clients): retries
    #: feed back into offered load (``None`` -> open-loop, the
    #: legacy storm).
    clients: "ClientPopulation | dict | bool | None" = None
    #: Server-side retry budget (``None`` -> retries admitted like
    #: first-tries).
    retry_budget: "RetryBudget | dict | bool | None" = None
    #: Post-crowd metastability analysis (``None`` -> no verdict).
    detector: "MetastabilityDetector | dict | bool | None" = None
    #: Extra ``SearchService`` kwargs as ``(key, value)`` pairs.
    service_kwargs: tuple = ()

    def crowd_clear_s(self) -> float:
        """When the trace's last flash crowd ends (0.0 with none) --
        the metastability detector's observation window opens after
        this point."""
        return max(
            (
                c.start_s + c.duration_s
                for c in self.trace.components
                if isinstance(c, FlashCrowd)
            ),
            default=0.0,
        )


@dataclass
class StormOutcome:
    """What one storm did, per class and in aggregate."""

    requests: "list[SearchRequest]"
    records: "list[RequestRecord]"
    report: ServiceReport
    crashes: int = 0
    recoveries: int = 0
    #: Recovered incarnation's elapsed time (restart -> drained).
    mttr_s: float = 0.0
    #: Post-crowd metastability verdict (``None`` when the storm ran
    #: without a detector).
    metastability: "MetastabilityVerdict | None" = None

    @property
    def per_class(self) -> "dict[str, ClassStats]":
        return self.report.per_class

    def attainment(self, priority: str) -> float:
        stats = self.report.per_class.get(priority)
        return stats.attainment if stats is not None else 0.0

    @property
    def post_crowd_attainment(self) -> float:
        """Interactive SLO attainment of the requests that arrived
        once the detector's observation window had opened (crowd end +
        settle) -- the recovery gate; needs a ``detector``."""
        return post_crowd_attainment(
            self.records, self.metastability.window_start_s
        )


def run_storm(config: StormConfig) -> StormOutcome:
    """Fire one storm at a single service node, recovering a planned
    mid-storm crash from the journal exactly once."""
    requests = make_trace(config.trace)
    kwargs = dict(
        n_devices=config.n_devices,
        max_active=config.max_active,
        max_queue=config.max_queue,
        seed=config.seed,
        overload=config.overload,
        autoscale=config.autoscale,
        faults=config.faults,
        clients=config.clients,
        retry_budget=config.retry_budget,
    )
    kwargs.update(dict(config.service_kwargs))
    served = serve(requests, journal=config.journal, **kwargs)
    records, report = served
    recoveries = int(served.crashed is not None)
    assert_explicit_outcomes(records)
    detector = MetastabilityDetector.coerce(config.detector)
    verdict = None
    if detector is not None:
        # The observation window runs from the end of the triggering
        # crowd to the end of the run (arrivals stop at the trace
        # horizon, but retries and backlogged work finish later).
        verdict = detector.analyze(
            records,
            clear_s=config.crowd_clear_s(),
            horizon_s=max(
                config.trace.horizon_s,
                max(
                    (
                        r.finish_s
                        for r in records
                        if r.finish_s is not None
                    ),
                    default=0.0,
                ),
            ),
        )
    return StormOutcome(
        requests=requests,
        records=records,
        report=report,
        crashes=recoveries,
        recoveries=recoveries,
        mttr_s=report.elapsed_s if recoveries else 0.0,
        metastability=verdict,
    )


@dataclass(frozen=True)
class ClusterStormConfig:
    """One cluster storm: trace + epoch-wise shard scaling + an
    optional mid-storm shard crash."""

    trace: TraceConfig = field(default_factory=TraceConfig)
    epochs: int = 2
    initial_shards: int = 2
    replicas: int = 1
    seed: int = 0
    #: Epoch-granularity shard-count loop (``None`` -> fixed count).
    shard_autoscale: "ShardAutoscalerConfig | None" = None
    #: Spread shards over this many failure domains (0 -> one domain
    #: per shard, the legacy layout).
    n_domains: int = 0
    cache: "dict | bool | None" = None
    #: Cluster-level hedged requests (``None`` -> no hedging).
    hedge: "HedgePolicy | dict | bool | None" = None
    journal_dir: "str | Path | None" = None
    #: Epoch in which shard 0's fault plan fires (``None`` -> no
    #: crash); needs ``journal_dir`` to recover.
    crash_epoch: "int | None" = None
    crash_faults: str = "crash=tick:3"
    #: Extra per-shard ``SearchService`` kwargs as pairs.
    service_kwargs: tuple = ()

    def __post_init__(self) -> None:
        if self.epochs <= 0:
            raise ValueError(
                f"epochs must be positive: {self.epochs}"
            )
        if self.initial_shards <= 0:
            raise ValueError(
                f"initial_shards must be positive: "
                f"{self.initial_shards}"
            )
        if self.crash_epoch is not None and self.journal_dir is None:
            raise ValueError(
                "a crash_epoch needs a journal_dir to recover from"
            )


@dataclass
class ClusterStormOutcome:
    """What one cluster storm did across its epochs."""

    requests: "list[SearchRequest]"
    records: "list[RequestRecord]"
    reports: "list[ClusterReport]"
    #: Shard count each epoch ran with.
    shard_counts: "list[int]"
    per_class: "dict[str, ClassStats]"
    crashes: int = 0
    recoveries: int = 0
    mean_mttr_s: float = 0.0

    def attainment(self, priority: str) -> float:
        stats = self.per_class.get(priority)
        return stats.attainment if stats is not None else 0.0


def run_cluster_storm(
    config: ClusterStormConfig,
) -> ClusterStormOutcome:
    """Fire one storm at a sharded cluster, epoch by epoch.

    Requests are partitioned into equal virtual-time epochs by
    arrival.  Each epoch runs a fresh :class:`ClusterRouter` at the
    shard count the :class:`ShardAutoscaler` chose from the previous
    epoch's interactive attainment (the ring seed is fixed, so a
    resize only moves the keys consistent hashing says must move).
    In ``crash_epoch``, shard 0 runs under ``crash_faults`` and
    recovers from its own journal -- requests of a crashed shard are
    still served exactly once.
    """
    requests = make_trace(config.trace)
    epoch_len = config.trace.horizon_s / config.epochs
    scaler = (
        ShardAutoscaler(config.shard_autoscale)
        if config.shard_autoscale is not None
        else None
    )
    journal_dir = (
        Path(config.journal_dir)
        if config.journal_dir is not None
        else None
    )
    n_shards = config.initial_shards
    shard_counts: "list[int]" = []
    reports: "list[ClusterReport]" = []
    all_records: "list[RequestRecord]" = []
    crashes = recoveries = 0
    mttrs: "list[float]" = []
    for epoch in range(config.epochs):
        lo = epoch * epoch_len
        hi = (epoch + 1) * epoch_len
        batch = [
            r
            for r in requests
            if lo <= r.arrival_s < hi
            or (epoch == config.epochs - 1 and r.arrival_s >= hi)
        ]
        shard_counts.append(n_shards)
        if not batch:
            continue
        overrides = (
            {0: {"faults": config.crash_faults}}
            if epoch == config.crash_epoch
            else None
        )
        domains = (
            tuple(i % config.n_domains for i in range(n_shards))
            if config.n_domains
            else None
        )
        router = ClusterRouter(
            n_shards=n_shards,
            replicas=config.replicas,
            seed=config.seed,
            cache=config.cache,
            journal_dir=(
                journal_dir / f"epoch{epoch}"
                if journal_dir is not None
                else None
            ),
            shard_overrides=overrides,
            failure_domains=domains,
            hedge=config.hedge,
            **dict(config.service_kwargs),
        )
        router.submit_all(batch)
        records = router.run()
        report = router.report()
        reports.append(report)
        all_records.extend(records)
        crashes += report.shard_crashes
        recoveries += report.shard_recoveries
        if report.shard_recoveries:
            mttrs.append(report.mean_mttr_s)
        if scaler is not None:
            stats = report.per_class.get("interactive")
            attainment = (
                stats.attainment if stats is not None else 1.0
            )
            n_shards = scaler.next_count(n_shards, attainment)
    assert_explicit_outcomes(all_records)
    return ClusterStormOutcome(
        requests=requests,
        records=all_records,
        reports=reports,
        shard_counts=shard_counts,
        per_class=class_summary(all_records),
        crashes=crashes,
        recoveries=recoveries,
        mean_mttr_s=sum(mttrs) / len(mttrs) if mttrs else 0.0,
    )
