"""Service-level metrics: latency percentiles, throughput, utilisation.

Latencies are virtual seconds on the service clock, from request
arrival to completion (queue wait included).  Percentiles use the
nearest-rank method so reports are deterministic and exactly
reproducible across runs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from repro.serve.request import (
    COMPLETED,
    MISSED,
    PRIORITY_CLASSES,
    REJECTED,
    SHED,
    RequestRecord,
    attempt_of,
)
from repro.util.tables import format_series


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in [0, 100]) of ``values``."""
    if not values:
        raise ValueError("percentile of an empty sequence")
    if not 0 <= q <= 100:
        raise ValueError(f"percentile must be in [0, 100]: {q}")
    ordered = sorted(values)
    rank = max(1, -(-int(q * len(ordered)) // 100))
    return ordered[min(rank, len(ordered)) - 1]


def latency_summary(
    values: Sequence[float],
) -> tuple[float, float, float]:
    """``(p50, p95, mean)`` of a latency sample (zeros when empty).

    The one latency-statistics fold shared by the single-service
    :func:`summarize` and the cluster aggregation in
    :mod:`repro.serve.cluster` -- percentile conventions must never
    drift between the per-shard and aggregate rows.
    """
    if not values:
        return 0.0, 0.0, 0.0
    return (
        percentile(values, 50),
        percentile(values, 95),
        sum(values) / len(values),
    )


def outcome_rows(
    offered: int,
    completed: int,
    rejected: int,
    missed: int,
    elapsed_s: float,
    requests_per_s: float,
    p50_latency_s: float,
    p95_latency_s: float,
    mean_latency_s: float,
    shed: int = 0,
) -> "dict[str, str]":
    """The offered/completed/latency report rows shared verbatim by
    :class:`ServiceReport` and the cluster's ``ClusterReport`` -- one
    definition so labels and number formats cannot drift between the
    single-service and aggregate tables (docs/cluster.md)."""
    rows = {
        "offered requests": str(offered),
        "completed": str(completed),
        "rejected (queue full)": str(rejected),
        "deadline missed": str(missed),
    }
    if shed:
        rows["shed (overload)"] = str(shed)
    rows.update(
        {
            "virtual elapsed (s)": f"{elapsed_s:.4f}",
            "requests/s": f"{requests_per_s:.1f}",
            "latency p50 (ms)": f"{p50_latency_s * 1e3:.2f}",
            "latency p95 (ms)": f"{p95_latency_s * 1e3:.2f}",
            "latency mean (ms)": f"{mean_latency_s * 1e3:.2f}",
        }
    )
    return rows


@dataclass(frozen=True)
class ClassStats:
    """Per-priority-class outcome of one run (docs/overload.md).

    *Attainment* is the SLO headline: the fraction of offered
    requests of the class that completed within their deadline (a
    request without a deadline counts as within).  Degraded
    completions inside the deadline attain the SLO -- that is the
    whole point of the degradation ladder -- but are reported
    separately so goodput under overload decomposes into
    ``met | degraded | shed | rejected | missed``.
    """

    offered: int = 0
    met: int = 0
    degraded: int = 0
    shed: int = 0
    rejected: int = 0
    missed: int = 0
    p50_latency_s: float = 0.0
    p99_latency_s: float = 0.0

    @property
    def attained(self) -> int:
        return self.met + self.degraded

    @property
    def attainment(self) -> float:
        """Completed-within-deadline over offered (0.0 when empty)."""
        if self.offered <= 0:
            return 0.0
        return self.attained / self.offered


def class_summary(
    records: Sequence[RequestRecord],
) -> "dict[str, ClassStats]":
    """Fold records into per-priority-class :class:`ClassStats`.

    Classes with no offered traffic are omitted; a run without
    priorities therefore reports one ``standard`` row.
    """
    out: dict[str, ClassStats] = {}
    for name in PRIORITY_CLASSES:
        subset = [
            r for r in records if r.request.priority == name
        ]
        if not subset:
            continue
        latencies = sorted(
            r.latency_s
            for r in subset
            if r.status == COMPLETED and r.latency_s is not None
        )
        attained = [r for r in subset if r.attained]
        out[name] = ClassStats(
            offered=len(subset),
            met=sum(1 for r in attained if not r.degraded),
            degraded=sum(1 for r in attained if r.degraded),
            shed=sum(1 for r in subset if r.status == SHED),
            rejected=sum(
                1 for r in subset if r.status == REJECTED
            ),
            missed=sum(
                1 for r in subset if r.status == MISSED
            )
            + sum(
                1 for r in subset if r.status == COMPLETED and not r.attained
            ),
            p50_latency_s=(
                percentile(latencies, 50) if latencies else 0.0
            ),
            p99_latency_s=(
                percentile(latencies, 99) if latencies else 0.0
            ),
        )
    return out


def class_rows(per_class: "dict[str, ClassStats]") -> "dict[str, str]":
    """Per-class report rows shared by the service and cluster tables
    (one formatter, docs/overload.md)."""
    rows: dict[str, str] = {}
    for name, stats in per_class.items():
        rows[f"{name}: attainment"] = (
            f"{stats.attainment * 100:.1f}% "
            f"({stats.attained}/{stats.offered})"
        )
        rows[f"{name}: met/degr/shed/rej/miss"] = (
            f"{stats.met}/{stats.degraded}/{stats.shed}/"
            f"{stats.rejected}/{stats.missed}"
        )
        rows[f"{name}: p99 latency (ms)"] = (
            f"{stats.p99_latency_s * 1e3:.2f}"
        )
    return rows


def render_metric_rows(title: str, rows: "dict[str, str]") -> str:
    """Render a ``metric -> value`` mapping as the standard two-column
    report table.  :class:`ServiceReport` and the cluster's
    :class:`~repro.serve.cluster.ClusterReport` both format through
    this helper so per-shard and aggregate rows look identical."""
    return format_series(
        "metric",
        list(rows),
        {"value": list(rows.values())},
        title=title,
    )


@dataclass
class ServiceReport:
    """Aggregated outcome of one service run."""

    offered: int
    completed: int
    rejected: int
    missed: int
    elapsed_s: float
    p50_latency_s: float
    p95_latency_s: float
    mean_latency_s: float
    p95_queue_wait_s: float
    kernel_launches: int = 0
    mean_lanes_per_launch: float = 0.0
    #: Overload-survival accounting (docs/overload.md): requests the
    #: controller load-shed with an explicit rejection, per-class
    #: outcome stats, and the highest degradation-ladder rung the
    #: hysteresis controller reached during the run.
    shed: int = 0
    per_class: "dict[str, ClassStats]" = field(default_factory=dict)
    peak_overload_level: int = 0
    #: Autoscaler accounting: scale-up / scale-down decisions taken
    #: and the largest fleet the run reached.
    scale_ups: int = 0
    scale_downs: int = 0
    peak_devices: int = 0
    #: Cross-tenant fusion accounting (``serve.fusion.*``): padded
    #: megakernel launches issued, power-of-two pad lanes wasted on
    #: them, and the mean number of tenant slices sharing one.
    fused_launches: int = 0
    fusion_pad_lanes: int = 0
    mean_tenants_per_launch: float = 0.0
    #: Track name ("gpu0", ...) -> busy fraction over the run.
    device_utilization: dict[str, float] = field(default_factory=dict)
    #: Completed-but-degraded requests (lost playout batches).
    degraded: int = 0
    #: Resilience accounting: launch retries issued, chains lost after
    #: exhausting retries, lanes dropped, host wait wasted on failed
    #: attempts, and injected fault counts by kind.
    retries: int = 0
    lost_launches: int = 0
    lost_lanes: int = 0
    retry_overhead_s: float = 0.0
    faults_injected: dict[str, int] = field(default_factory=dict)
    #: Crash-recovery accounting: requests adopted as already complete
    #: from the journal, requests resumed from a checkpoint, requests
    #: restarted from scratch, and engine iterations salvaged from
    #: checkpoints (work the recovered run did not have to redo).
    recovered: int = 0
    resumed: int = 0
    restarted: int = 0
    recovered_iterations: int = 0
    #: Integrity accounting: corrupt results detected (and rejected)
    #: at the host boundary, corruptions that escaped validation,
    #: launcher deliveries rejected by screening, batches degraded to
    #: neutral after the reject-retry budget, trees quarantined by the
    #: live audit, and persistence corruption caught by checksums
    #: (journal records skipped, checkpoints refused at recovery).
    corrupt_detected: int = 0
    corrupt_escaped: int = 0
    rejected_results: int = 0
    dropped_batches: int = 0
    quarantined_trees: int = 0
    journal_corrupt: int = 0
    checkpoint_corrupt: int = 0
    #: Closed-loop traffic decomposition (repro.serve.clients):
    #: offered splits into first-tries and retries by attempt lineage
    #: on request ids; ``retries_completed`` is the subset of retries
    #: that completed.
    first_tries: int = 0
    retries_offered: int = 0
    retries_completed: int = 0
    #: Client-side defense accounting: retries the population chose
    #: not to offer (open breakers / adaptive throttle), lineages
    #: whose attempt cap or give-up deadline fired, and per-client
    #: breaker transitions.
    client_suppressed_breaker: int = 0
    client_suppressed_throttle: int = 0
    retry_exhausted: int = 0
    retry_give_ups: int = 0
    breaker_opens: int = 0
    breaker_closes: int = 0
    #: Server-side retry-budget accounting: retries admitted on a
    #: token vs refused at the front door.
    budget_granted: int = 0
    budget_rejected: int = 0

    @property
    def requests_per_s(self) -> float:
        """Completed searches per virtual second."""
        if self.elapsed_s <= 0:
            return 0.0
        return self.completed / self.elapsed_s

    @property
    def completion_rate(self) -> float:
        """Completed over offered (degraded completions count)."""
        if self.offered <= 0:
            return 0.0
        return self.completed / self.offered

    def outcome_rows(self) -> "dict[str, str]":
        """The offered/completed/latency rows shared verbatim with the
        cluster report (docs/cluster.md)."""
        return outcome_rows(
            self.offered,
            self.completed,
            self.rejected,
            self.missed,
            self.elapsed_s,
            self.requests_per_s,
            self.p50_latency_s,
            self.p95_latency_s,
            self.mean_latency_s,
            shed=self.shed,
        )

    def render(self, title: str = "service run") -> str:
        rows = self.outcome_rows()
        if self.shed or self.peak_overload_level:
            rows["peak overload level"] = str(
                self.peak_overload_level
            )
        if self.shed or set(self.per_class) - {"standard"}:
            rows.update(class_rows(self.per_class))
        if self.scale_ups or self.scale_downs:
            rows["autoscaler scale-ups"] = str(self.scale_ups)
            rows["autoscaler scale-downs"] = str(self.scale_downs)
            rows["peak devices"] = str(self.peak_devices)
        rows["queue wait p95 (ms)"] = (
            f"{self.p95_queue_wait_s * 1e3:.2f}"
        )
        rows["kernel launches"] = str(self.kernel_launches)
        rows["mean lanes/launch"] = (
            f"{self.mean_lanes_per_launch:.1f}"
        )
        if self.fused_launches:
            waste = self.fusion_pad_lanes / max(
                1,
                self.fusion_pad_lanes
                + round(
                    self.mean_lanes_per_launch * self.kernel_launches
                ),
            )
            rows["fused launches"] = str(self.fused_launches)
            rows["fusion pad lanes"] = (
                f"{self.fusion_pad_lanes} ({waste * 100:.0f}% waste)"
            )
            rows["mean tenants/launch"] = (
                f"{self.mean_tenants_per_launch:.1f}"
            )
        if (
            self.degraded
            or self.retries
            or self.lost_launches
            or self.faults_injected
        ):
            rows["degraded"] = str(self.degraded)
            rows["launch retries"] = str(self.retries)
            rows["lost launches"] = str(self.lost_launches)
            rows["lost lanes"] = str(self.lost_lanes)
            rows["retry overhead (ms)"] = (
                f"{self.retry_overhead_s * 1e3:.2f}"
            )
            for kind in sorted(self.faults_injected):
                rows[f"faults: {kind}"] = str(
                    self.faults_injected[kind]
                )
        if (
            self.corrupt_detected
            or self.corrupt_escaped
            or self.rejected_results
            or self.dropped_batches
            or self.quarantined_trees
            or self.journal_corrupt
            or self.checkpoint_corrupt
        ):
            rows["corrupt detected"] = str(self.corrupt_detected)
            rows["corrupt escaped"] = str(self.corrupt_escaped)
            rows["results rejected"] = str(self.rejected_results)
            rows["batches dropped"] = str(self.dropped_batches)
            rows["trees quarantined"] = str(self.quarantined_trees)
            rows["journal records corrupt"] = str(
                self.journal_corrupt
            )
            rows["checkpoints corrupt"] = str(
                self.checkpoint_corrupt
            )
        if self.retries_offered or self.client_suppressed_breaker:
            rows["first tries"] = str(self.first_tries)
            rows["retries offered"] = str(self.retries_offered)
            rows["retries completed"] = str(self.retries_completed)
            rows["retries exhausted"] = str(self.retry_exhausted)
            rows["retries gave up"] = str(self.retry_give_ups)
            if self.client_suppressed_breaker or self.breaker_opens:
                rows["breaker-suppressed retries"] = str(
                    self.client_suppressed_breaker
                )
                rows["breaker opens"] = str(self.breaker_opens)
                rows["breaker closes"] = str(self.breaker_closes)
            if self.client_suppressed_throttle:
                rows["throttle-suppressed retries"] = str(
                    self.client_suppressed_throttle
                )
        if self.budget_granted or self.budget_rejected:
            rows["retry budget granted"] = str(self.budget_granted)
            rows["retry budget rejected"] = str(self.budget_rejected)
        if self.recovered or self.resumed or self.restarted:
            rows["recovered (adopted)"] = str(self.recovered)
            rows["resumed from checkpoint"] = str(self.resumed)
            rows["restarted from scratch"] = str(self.restarted)
            rows["iterations salvaged"] = str(
                self.recovered_iterations
            )
        for track in sorted(self.device_utilization):
            rows[f"{track} utilisation"] = (
                f"{self.device_utilization[track] * 100:.0f}%"
            )
        return render_metric_rows(title, rows)


def summarize(
    records: Sequence[RequestRecord], elapsed_s: float, **counters
) -> ServiceReport:
    """Fold a run's request records into a :class:`ServiceReport`.

    The record-derived fields are computed here; ``counters`` are the
    component-owned :class:`ServiceReport` fields the records cannot
    tell (launch, fault, recovery, client, cache accounting ...),
    forwarded by name -- one left out keeps the report's default.
    """
    latencies = [
        r.latency_s for r in records if r.status == COMPLETED
    ]
    retry_records = [
        r for r in records if attempt_of(r.request.request_id) > 0
    ]
    waits = [
        r.queue_wait_s
        for r in records
        if r.status == COMPLETED and r.queue_wait_s is not None
    ]
    p50, p95, mean = latency_summary(latencies)
    return ServiceReport(
        offered=len(records),
        completed=len(latencies),
        rejected=sum(1 for r in records if r.status == REJECTED),
        missed=sum(1 for r in records if r.status == MISSED),
        shed=sum(1 for r in records if r.status == SHED),
        degraded=sum(
            1
            for r in records
            if r.status == COMPLETED and r.degraded
        ),
        lost_lanes=sum(r.lost_lanes for r in records),
        per_class=class_summary(records),
        first_tries=len(records) - len(retry_records),
        retries_offered=len(retry_records),
        retries_completed=sum(
            1 for r in retry_records if r.status == COMPLETED
        ),
        elapsed_s=elapsed_s,
        p50_latency_s=p50,
        p95_latency_s=p95,
        mean_latency_s=mean,
        p95_queue_wait_s=percentile(waits, 95) if waits else 0.0,
        **counters,
    )
