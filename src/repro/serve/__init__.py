"""Batched multi-tenant search serving.

The ROADMAP's "serve heavy traffic" layer: many concurrent search
requests (mixed games, engines, budgets, deadlines) multiplexed over a
shared pool of virtual GPUs.  CPU-engine requests run as round
policies (``repro.core.rounds``) whose playout demand is merged each
tick into wide vectorised kernel launches, and whose tree work is
batched across tenants -- the serving-scale
generalisation of the paper's block-parallel idea that one wide SIMT
device should be fed from many independent trees.

Entry points::

    from repro.serve import SearchRequest, SearchService

    service = SearchService(n_devices=4, max_active=64)
    service.submit(SearchRequest(
        request_id="r0", game="reversi", engine="root:8",
        budget_s=0.004, seed=1, deadline_s=1.0,
    ))
    records = service.run()
    print(service.report().render())

See docs/serving.md for the scheduler design, deadline semantics and
metric definitions.
"""

from repro.serve.autoscale import Autoscaler, AutoscalerConfig
from repro.serve.cache import (
    CacheEntry,
    CacheKey,
    ResultCache,
    cache_key_for,
    screen_result,
)
from repro.serve.clients import (
    AdaptiveThrottle,
    BreakerConfig,
    CircuitBreaker,
    ClientConfig,
    ClientPopulation,
    ClientRetryPolicy,
    MetastabilityDetector,
    MetastabilityVerdict,
    RetryBudget,
    ThrottleConfig,
    post_crowd_attainment,
)
from repro.serve.cluster import (
    ClusterReport,
    ClusterRouter,
    HashRing,
    ShardHandle,
)
from repro.serve.journal import (
    JOURNAL_FORMAT_VERSION,
    JournalCheckpoint,
    JournalCompletion,
    JournalError,
    JournalState,
    JournalWriter,
    read_journal,
)
from repro.serve.metrics import (
    ClassStats,
    ServiceReport,
    class_summary,
    percentile,
    summarize,
)
from repro.serve.overload import (
    FlashCrowd,
    HysteresisController,
    OverloadPolicy,
    TraceConfig,
    make_trace,
)
from repro.serve.resilience import (
    Attempt,
    LaunchOutcome,
    ResilientLauncher,
)
from repro.serve.request import (
    CLASS_RANK,
    COMPLETED,
    MISSED,
    PENDING,
    PRIORITY_CLASSES,
    QUEUED,
    REJECTED,
    RUNNING,
    SHED,
    TERMINAL_STATUSES,
    RequestRecord,
    SearchRequest,
    attempt_of,
    lineage_root,
    retry_id,
    tenant_of,
)
from repro.serve.scheduler import (
    FusedBatcher,
    GeneratorPool,
    LaneBatcher,
    fused_kernel_spec,
    launch_config_for,
)
from repro.serve.service import (
    SearchService,
    ServiceCrash,
    ServiceError,
    serve,
)
from repro.serve.storm import (
    SilentOutcomeError,
    StormConfig,
    StormOutcome,
    assert_explicit_outcomes,
    run_storm,
)
from repro.serve.workload import (
    MIXED_ENGINES,
    MIXED_GAMES,
    WorkloadConfig,
    make_workload,
)

__all__ = [
    "SearchRequest",
    "RequestRecord",
    "SearchService",
    "ClusterRouter",
    "ClusterReport",
    "HashRing",
    "ShardHandle",
    "ResultCache",
    "CacheEntry",
    "CacheKey",
    "cache_key_for",
    "screen_result",
    "ServiceCrash",
    "ServiceError",
    "ServiceReport",
    "JournalWriter",
    "JournalState",
    "JournalCheckpoint",
    "JournalCompletion",
    "JournalError",
    "JOURNAL_FORMAT_VERSION",
    "read_journal",
    "serve",
    "summarize",
    "percentile",
    "Attempt",
    "LaunchOutcome",
    "ResilientLauncher",
    "GeneratorPool",
    "LaneBatcher",
    "FusedBatcher",
    "fused_kernel_spec",
    "launch_config_for",
    "WorkloadConfig",
    "make_workload",
    "MIXED_ENGINES",
    "MIXED_GAMES",
    "PENDING",
    "QUEUED",
    "RUNNING",
    "COMPLETED",
    "REJECTED",
    "MISSED",
    "SHED",
    "TERMINAL_STATUSES",
    "PRIORITY_CLASSES",
    "CLASS_RANK",
    "ClassStats",
    "class_summary",
    "TraceConfig",
    "make_trace",
    "FlashCrowd",
    "OverloadPolicy",
    "HysteresisController",
    "Autoscaler",
    "AutoscalerConfig",
    "StormConfig",
    "StormOutcome",
    "run_storm",
    "assert_explicit_outcomes",
    "SilentOutcomeError",
    "ClientRetryPolicy",
    "ClientConfig",
    "ClientPopulation",
    "BreakerConfig",
    "CircuitBreaker",
    "ThrottleConfig",
    "AdaptiveThrottle",
    "RetryBudget",
    "MetastabilityDetector",
    "MetastabilityVerdict",
    "post_crowd_attainment",
    "attempt_of",
    "lineage_root",
    "retry_id",
    "tenant_of",
]
