"""Serving gates: batched multi-tenant search vs back-to-back searches.

The tentpole claim of the serving layer, measured end-to-end: a
64-request mixed workload (three games, six engine specs, varied
budgets) served concurrently over a shared 4-GPU pool must complete

* deterministically -- the same seed produces identical per-request
  results across runs,
* with zero deadline misses at the default deadline, and
* at >= 2x the requests/s of the same 64 searches run back-to-back on
  a single device.

A load sweep (offered loads 1..256) reports requests/s and p50/p95
latency at each point.  Every operating point is a row of
``repro.serve.scenarios`` (docs/serving.md, "Scenarios"); this file
lays the tiers over the rows and holds the gates, one group per prefix:
``-k test_serve_`` (the closed workload above), ``-k test_cluster_``,
``-k test_storm_`` and ``-k test_retry_storm_``.  They run at the quick
tier; REPRO_TIER=default restores the full budgets.

The cluster group measures the sharded stack from docs/cluster.md:
shard-count throughput scaling on independent traffic (>= 3x at 4
shards), the
result cache's p50 collapse on Zipf-skewed duplicate traffic (hit
rate > 0, measured collapse recorded in
``benchmarks/REPORT_cluster.md``), and a mid-run shard kill that must
recover exactly-once through the journal.

The storm group measures the overload-survival layer from
docs/overload.md: a 4x flash crowd over a 2-device node must hold
interactive SLO attainment >= 95%
with the degradation ladder and autoscaler engaged, versus < 50%
undefended; seeded storms must replay bit-identically; a two-shard
cluster whose shard crashes mid-storm must still serve every request
exactly once.  Measured numbers are recorded in
``benchmarks/REPORT_overload.md``.

The retry-storm group measures the closed-loop client layer from
repro.serve.clients: the same seeded flash crowd with retrying
clients must leave the *undefended* node metastably trapped (offered
load stays above goodput long after the crowd clears) while the
*defended* stack -- degradation ladder + server-side retry budget +
per-client circuit breakers + adaptive throttling -- recovers
post-crowd interactive attainment to >= 95%; both runs replay
bit-identically.  Measured numbers are recorded in
``benchmarks/REPORT_retrystorm.md``.
"""

import tempfile
from dataclasses import replace

from repro.harness.common import resolve_tier
from repro.serve import (
    ClusterRouter,
    assert_explicit_outcomes,
    make_trace,
    make_workload,
    run_storm,
    scenarios,
    serve,
)
from repro.util.tables import format_series

#: Tier -> (budget scale, offered loads of the sweep) laid over the
#: ``mixed`` row by :func:`run_mixed`, which test_faults.py serves too.
MIXED_TIERS = {
    "quick": (0.25, (1, 16, 64, 256)),
    "default": (1.0, (1, 4, 16, 64, 256)),
    "full": (2.0, (1, 4, 16, 64, 128, 256)),
}


def cluster_row(skewed: bool = False):
    """``scenarios.cluster_contended()``: ``(workload, router
    kwargs)``.  The quick tier keeps the full 64 requests and position
    pool -- scaling and cache collapse need enough offered load (and
    shard balance) to show -- and trims the sweep to its gated
    endpoints instead (:func:`shard_counts`)."""
    workload, router = scenarios.cluster_contended(skewed=skewed)
    if resolve_tier() == "full":
        workload = replace(
            workload,
            n_requests=128,
            budget_scale=0.5,
            position_pool=workload.position_pool if skewed else 512,
        )
    return workload, router


def shard_counts() -> tuple[int, ...]:
    return (1, 4) if resolve_tier() == "quick" else (1, 2, 4, 8)


def run_cluster(workload, router, n_shards: int, **router_kwargs):
    """One cluster run over a generated workload."""
    cluster = ClusterRouter(
        n_shards=n_shards, **{**router, **router_kwargs}
    )
    cluster.submit_all(make_workload(workload))
    records = cluster.run()
    return records, cluster.report()


def run_scaling_sweep():
    """Shard count -> ClusterReport on independent traffic."""
    row = cluster_row()
    return {n: run_cluster(*row, n)[1] for n in shard_counts()}


def run_skew_comparison():
    """(cache-off report, cache-on report) on Zipf-skewed traffic."""
    row = cluster_row(skewed=True)
    return tuple(
        run_cluster(*row, 4, cache=cache)[1] for cache in (None, True)
    )


def run_shard_kill():
    """Kill shard 0 mid-run; the journal must recover exactly-once."""
    with tempfile.TemporaryDirectory() as journal_dir:
        records, report = run_cluster(
            *cluster_row(),
            4,
            journal_dir=journal_dir,
            shard_overrides={0: {"faults": "crash=tick:4"}},
        )
    rids = [r.request.request_id for r in records]
    assert len(rids) == len(set(rids)), "request served twice"
    return records, report


def render_scaling_sweep(reports) -> str:
    counts = sorted(reports)
    base = reports[counts[0]].requests_per_s
    return format_series(
        "shards",
        counts,
        {
            "requests/s": [
                f"{reports[n].requests_per_s:.1f}" for n in counts
            ],
            "scaling": [
                f"{reports[n].requests_per_s / base:.2f}x"
                for n in counts
            ],
            "elapsed (s)": [
                f"{reports[n].elapsed_s:.4f}" for n in counts
            ],
            "p50 latency (ms)": [
                f"{reports[n].p50_latency_s * 1e3:.2f}"
                for n in counts
            ],
        },
        title=(
            "cluster throughput scaling "
            "(independent traffic, contended shards)"
        ),
    )


def render_skew_comparison(off, on) -> str:
    return format_series(
        "metric",
        [
            "p50 latency (ms)",
            "p95 latency (ms)",
            "requests/s",
            "cache hit rate",
        ],
        {
            "cache off": [
                f"{off.p50_latency_s * 1e3:.2f}",
                f"{off.p95_latency_s * 1e3:.2f}",
                f"{off.requests_per_s:.1f}",
                "-",
            ],
            "cache on": [
                f"{on.p50_latency_s * 1e3:.2f}",
                f"{on.p95_latency_s * 1e3:.2f}",
                f"{on.requests_per_s:.1f}",
                f"{on.cache_hit_rate * 100:.0f}%",
            ],
        },
        title=(
            "Zobrist result cache on Zipf-skewed traffic "
            "(4 shards)"
        ),
    )


def storm_fingerprint(outcome):
    """Bit-level identity of one storm: every arrival and every
    per-request terminal outcome."""
    arrivals = [
        (r.request_id, r.arrival_s, r.priority, r.deadline_s,
         r.game, r.engine, r.budget_s, r.seed)
        for r in outcome.requests
    ]
    outcomes = [
        (
            rec.request.request_id,
            rec.status,
            rec.outcome,
            rec.degrade_level,
            rec.latency_s,
            None if rec.result is None else rec.result.move,
            None if rec.result is None else rec.result.simulations,
        )
        for rec in outcome.records
    ]
    return arrivals, outcomes


def run_storm_cluster_kill():
    """The storm row's crowd at a third of the rate and half the
    horizon, over two defended shards; shard 0 crashes mid-crowd and
    its journal must recover it exactly-once.  Returns the trace's
    requests, the records and the cluster report."""
    trace = replace(
        scenarios.storm().trace, base_rate=150.0, horizon_s=0.3
    )
    requests = make_trace(trace)
    with tempfile.TemporaryDirectory() as journal_dir:
        router = ClusterRouter(
            n_shards=2,
            seed=trace.seed,
            journal_dir=journal_dir,
            shard_overrides={0: {"faults": "crash=tick:3"}},
            n_devices=2,
            max_active=8,
            overload=True,
        )
        router.submit_all(requests)
        records = router.run()
    return requests, records, router.report()


def render_storm_comparison(defended, undefended) -> str:
    classes = ["interactive", "standard", "batch"]

    def column(out):
        cells = []
        for cls in classes:
            stats = out.per_class.get(cls)
            if stats is None:
                cells.append("-")
                continue
            cells.append(
                f"{stats.attainment * 100:5.1f}%  "
                f"({stats.met}/{stats.degraded}/{stats.shed}/"
                f"{stats.rejected}/{stats.missed})"
            )
        cells.append(str(out.report.peak_devices or "-"))
        cells.append(str(out.report.shed))
        return cells

    return format_series(
        "class: attainment (met/degr/shed/rej/miss)",
        classes + ["peak devices", "total shed"],
        {
            "defended": column(defended),
            "undefended": column(undefended),
        },
        title=(
            "overload storm: 4x flash crowd on a 2-device node "
            "(docs/overload.md)"
        ),
    )


def render_retry_storm(healthy, undefended, defended) -> str:
    def column(out):
        rep = out.report
        verdict = out.metastability
        pc = out.post_crowd_attainment
        return [
            str(rep.first_tries),
            str(rep.retries_offered),
            str(rep.completed),
            str(rep.missed),
            str(rep.rejected),
            str(rep.shed),
            f"{out.attainment('interactive') * 100:.0f}%",
            f"{pc * 100:.0f}%",
            "TRAPPED" if verdict.trapped else "recovered",
            str(verdict.trapped_bins),
            f"{verdict.goodput_ratio:.2f}",
            str(rep.breaker_opens),
            str(rep.budget_rejected),
            str(rep.client_suppressed_breaker),
            str(rep.client_suppressed_throttle),
        ]

    return format_series(
        "metric",
        [
            "first tries",
            "retries offered",
            "completed",
            "missed",
            "rejected",
            "shed",
            "interactive SLO (all)",
            "interactive SLO (post-crowd)",
            "metastability verdict",
            "trapped bins (consecutive)",
            "post-crowd goodput/offered",
            "breaker opens",
            "budget-rejected retries",
            "suppressed (breaker)",
            "suppressed (throttle)",
        ],
        {
            "healthy (no crowd)": column(healthy),
            "undefended": column(undefended),
            "defended": column(defended),
        },
        title=(
            "retry storm: 10x flash crowd with closed-loop clients "
            "(repro.serve.clients)"
        ),
    )


def run_mixed(
    n_requests: int = 64, deadlines: bool = True, **service_overrides
):
    """Serve ``n_requests`` of the mixed row at the tier's budgets on
    its service plus ``service_overrides``.  ``deadlines=False`` drops
    them (from the requests and from the service): for runs that
    squeeze the node -- the serial baseline, the one-device fusion
    pool -- or, in test_faults.py, test resilience rather than
    deadline pressure, so nothing is cut short while it queues."""
    workload, service = scenarios.mixed()
    scale, _ = MIXED_TIERS[resolve_tier()]
    workload = replace(workload, n_requests=n_requests, budget_scale=scale)
    if not deadlines:
        workload = replace(workload, deadline_s=None)
        service["enforce_deadlines"] = False
    service.update(service_overrides)
    return serve(make_workload(workload), **service)


def fingerprint(records):
    """Per-request identity of a run, for determinism checks."""
    return [
        (
            r.request.request_id,
            r.status,
            r.latency_s,
            None if r.result is None else r.result.move,
            None if r.result is None else r.result.simulations,
        )
        for r in records
    ]


def run_load_sweep():
    """Offered load -> ServiceReport, over the tier's loads."""
    _, loads = MIXED_TIERS[resolve_tier()]
    return {load: run_mixed(load).report for load in loads}


def run_fusion_sweep(loads=(8, 16, 32)):
    """Tenant count -> (unfused run, fused run) on one contended
    device."""
    return {
        n: tuple(
            run_mixed(n, deadlines=False, n_devices=1, fusion=fusion)
            for fusion in (False, True)
        )
        for n in loads
    }


def render_fusion_sweep(results) -> str:
    loads = sorted(results)
    rows = {
        "p50 unfused (ms)": [],
        "p50 fused (ms)": [],
        "p50 win": [],
        "launches unfused": [],
        "launches fused": [],
        "tenants/launch": [],
    }
    for n in loads:
        (_, plain), (_, fused) = results[n]
        rows["p50 unfused (ms)"].append(
            f"{plain.p50_latency_s * 1e3:.2f}"
        )
        rows["p50 fused (ms)"].append(f"{fused.p50_latency_s * 1e3:.2f}")
        rows["p50 win"].append(
            f"{(1 - fused.p50_latency_s / plain.p50_latency_s) * 100:+.1f}%"
        )
        rows["launches unfused"].append(str(plain.kernel_launches))
        rows["launches fused"].append(str(fused.kernel_launches))
        rows["tenants/launch"].append(
            f"{fused.mean_tenants_per_launch:.1f}"
        )
    return format_series(
        "concurrent tenants",
        loads,
        rows,
        title="cross-tenant fusion on a contended pool (1 device)",
    )


def render_sweep(reports) -> str:
    loads = sorted(reports)
    return format_series(
        "offered load",
        loads,
        {
            "requests/s": [
                f"{reports[n].requests_per_s:.1f}" for n in loads
            ],
            "p50 latency (ms)": [
                f"{reports[n].p50_latency_s * 1e3:.2f}" for n in loads
            ],
            "p95 latency (ms)": [
                f"{reports[n].p95_latency_s * 1e3:.2f}" for n in loads
            ],
            "missed": [str(reports[n].missed) for n in loads],
        },
        title="serving load sweep (mixed workload, shared 4-GPU pool)",
    )


def test_serve_64_deterministic_no_misses():
    records, report = run_mixed()
    again, _ = run_mixed()
    assert fingerprint(records) == fingerprint(again)
    assert report.completed == 64
    assert report.missed == 0
    assert report.rejected == 0


def test_serve_speedup_vs_serial_baseline():
    concurrent = run_mixed().report
    serial = run_mixed(deadlines=False, n_devices=1, max_active=1).report
    print()
    print("concurrent (4 devices, 64 active slots):")
    print(concurrent.render())
    print()
    print("serial baseline (1 device, 1 active slot):")
    print(serial.render())
    assert concurrent.completed == serial.completed == 64
    assert concurrent.missed == 0
    speedup = concurrent.requests_per_s / serial.requests_per_s
    print(f"\nspeedup: {speedup:.2f}x requests/s")
    assert speedup >= 2.0


def test_serve_fusion_p50_win_on_contended_pool():
    """The fusion tentpole's serving claim: at 8+ concurrent tenants
    on a contended single-device pool, fused launches cut p50 latency
    (launch + readback latency paid once per tick, not once per game)
    while returning bit-identical per-request results."""

    def results_only(records):
        # Latency is exactly what fusion improves; what must not
        # change is every request's search outcome.
        return [
            (rid, status, move, sims)
            for rid, status, _, move, sims in fingerprint(records)
        ]

    results = run_fusion_sweep()
    print()
    print(render_fusion_sweep(results))
    for n, ((plain_recs, plain), (fused_recs, fused)) in (
        results.items()
    ):
        assert results_only(fused_recs) == results_only(plain_recs)
        assert fused.kernel_launches < plain.kernel_launches
        assert fused.fused_launches > 0
        assert fused.p50_latency_s < plain.p50_latency_s


def test_serve_load_sweep():
    reports = run_load_sweep()
    print()
    print(render_sweep(reports))
    assert set(reports) == set(MIXED_TIERS[resolve_tier()][1])
    for report in reports.values():
        assert report.completed + report.missed + report.rejected == (
            report.offered
        )
        assert report.p95_latency_s >= report.p50_latency_s


def test_cluster_throughput_scales_with_shards(headline):
    reports = run_scaling_sweep()
    print()
    print(render_scaling_sweep(reports))
    counts = sorted(reports)
    n_requests = cluster_row()[0].n_requests
    for report in reports.values():
        assert report.completed == n_requests
    scaling = reports[4].requests_per_s / reports[1].requests_per_s
    assert scaling >= 3.0
    # More shards never hurts throughput across the sweep.
    assert (
        reports[counts[-1]].requests_per_s
        >= reports[counts[0]].requests_per_s
    )
    headline.append(f"4-shard scaling {scaling:.2f}x")


def test_cluster_cache_collapses_skewed_p50(headline):
    off, on = run_skew_comparison()
    print()
    print(render_skew_comparison(off, on))
    n_requests = cluster_row(skewed=True)[0].n_requests
    assert off.completed == on.completed == n_requests
    assert on.cache_hit_rate > 0
    # The measured collapse (>= 2x at the default tier) is recorded
    # in REPORT_cluster.md; keep slack here for the quick tier.
    assert on.p50_latency_s * 1.5 <= off.p50_latency_s
    headline.append(
        f"cache hit rate {on.cache_hit_rate:.0%} (p50 collapse "
        f"{off.p50_latency_s / on.p50_latency_s:.2f}x) under skew"
    )


def test_cluster_shard_kill_recovers_exactly_once(headline):
    records, report = run_shard_kill()
    print(
        f"\nshard kill: {report.completed}/{report.offered} completed, "
        f"{report.shard_crashes} crash, MTTR {report.mean_mttr_s:.4f}s"
    )
    assert report.completed == cluster_row()[0].n_requests
    assert report.shard_crashes == 1
    assert report.shard_recoveries == 1
    assert report.mean_mttr_s > 0
    headline.append("shard kill recovered exactly-once")


def assert_outcomes_partition(outcome):
    """Every class's offered requests split into the five explicit
    terminal outcomes, none left over."""
    for stats in outcome.per_class.values():
        assert stats.offered == (
            stats.met + stats.degraded + stats.shed
            + stats.rejected + stats.missed
        )


def test_storm_interactive_slo_defended_vs_undefended(headline):
    """The overload tentpole's headline: under a 4x flash crowd the
    defense ladder keeps the interactive SLO while the undefended
    node collapses -- and every request ends in an explicit
    terminal outcome either way."""

    defended = run_storm(scenarios.storm())
    undefended = run_storm(scenarios.storm(defended=False))
    print()
    print(render_storm_comparison(defended, undefended))
    d_int = defended.attainment("interactive")
    u_int = undefended.attainment("interactive")
    assert d_int >= 0.95
    assert u_int < 0.50, "storm is not overloading"
    for outcome in (defended, undefended):
        assert len(outcome.records) == len(outcome.requests)
        assert_outcomes_partition(outcome)
    # The ladder protects interactive by shedding lower classes, not
    # by degrading or dropping interactive work.
    interactive = defended.per_class["interactive"]
    assert interactive.shed == 0
    assert defended.report.shed > 0
    assert defended.report.peak_devices > scenarios.storm().n_devices
    headline.append(
        f"interactive attainment {d_int:.0%} defended vs "
        f"{u_int:.0%} undefended"
    )


def test_storm_replay_bit_identical(headline):
    """Identical seeds give identical arrivals and identical
    per-request outcomes across two full storm replays."""
    first, second = (run_storm(scenarios.storm()) for _ in range(2))
    assert storm_fingerprint(first) == storm_fingerprint(second)
    headline.append("replay bit-identical")


def test_storm_cluster_shard_crash_exactly_once(headline):
    """A shard crash mid-storm is recovered from its journal; no
    request is lost, none is served twice, and every one ends in an
    explicit terminal outcome."""
    requests, records, report = run_storm_cluster_kill()
    print(
        f"\ncluster storm: {len(records)} requests over "
        f"{report.n_shards} shards, {report.shard_crashes} crash, "
        f"MTTR {report.mean_mttr_s:.4f}s"
    )
    assert_explicit_outcomes(records)
    rids = [r.request.request_id for r in records]
    assert len(rids) == len(set(rids)), "request served twice"
    assert len(rids) == len(requests), "request lost"
    assert report.shard_crashes == report.shard_recoveries == 1
    assert report.mean_mttr_s > 0
    headline.append("mid-storm shard crash recovered exactly-once")


def test_retry_storm_metastable_differential(headline):
    """The closed-loop tentpole's headline: with retrying clients the
    undefended node stays trapped after the crowd clears, while the
    defended stack recovers post-crowd interactive attainment -- and
    the base load alone is provably healthy, so the trap is
    metastability, not plain overload."""

    healthy = run_storm(scenarios.retry_storm(defended=False, crowd=False))
    undefended = run_storm(scenarios.retry_storm(defended=False))
    defended = run_storm(scenarios.retry_storm())
    print()
    print(render_retry_storm(healthy, undefended, defended))
    # The healthy equilibrium exists: base load alone meets every SLO
    # and generates no retries.
    assert healthy.attainment("interactive") >= 0.99
    assert healthy.report.retries_offered == 0
    assert not healthy.metastability.trapped
    # Undefended: the trigger is gone but the bad equilibrium
    # remains -- sustained trapped bins, goodput pinned below
    # offered, fresh post-crowd interactive work still failing.
    assert undefended.metastability.trapped, "the storm is not igniting"
    assert undefended.report.retries_offered > 1000
    assert undefended.post_crowd_attainment < 0.50
    # Defended: same trace, same clients -- the budget + breakers +
    # throttle collapse the retry flood and the node escapes.
    assert not defended.metastability.trapped
    assert defended.post_crowd_attainment >= 0.95
    assert defended.report.retries_offered < (
        undefended.report.retries_offered // 4
    )
    # Each defense layer demonstrably engaged.
    assert defended.report.budget_rejected > 0
    assert defended.report.breaker_opens > 0
    assert defended.report.client_suppressed_breaker > 0
    assert defended.report.client_suppressed_throttle > 0
    for outcome in (healthy, undefended, defended):
        assert_outcomes_partition(outcome)
    headline.append(
        f"post-crowd interactive {defended.post_crowd_attainment:.0%} "
        f"defended vs {undefended.post_crowd_attainment:.0%} undefended "
        f"(trapped {undefended.metastability.trapped_bins} bins)"
    )


def test_retry_storm_replay_bit_identical(headline):
    """Closed-loop storms -- retries, breakers, jitter and all --
    replay bit-identically from one seed, on both sides of the
    differential."""
    u1, u2, d1, d2 = (
        run_storm(scenarios.retry_storm(defended=defended))
        for defended in (False, False, True, True)
    )
    assert storm_fingerprint(u1) == storm_fingerprint(u2)
    assert storm_fingerprint(d1) == storm_fingerprint(d2)
    assert storm_fingerprint(u1) != storm_fingerprint(d1)
    headline.append("replay bit-identical")

