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
node.  A cluster needs no harness of its own: a
:class:`~repro.serve.cluster.ClusterRouter` with a ``journal_dir``
recovers its crashed shards itself.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

from repro.faults import FaultPlan
from repro.serve.autoscale import AutoscalerConfig
from repro.serve.clients import (
    ClientPopulation,
    MetastabilityDetector,
    MetastabilityVerdict,
    RetryBudget,
    post_crowd_attainment,
)
from repro.serve.metrics import ClassStats, ServiceReport
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
    served = serve(
        requests,
        journal=config.journal,
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
