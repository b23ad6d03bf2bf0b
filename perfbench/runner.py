"""Measuring one workload: the untraced run that yields the end-to-end
metrics and the traced run that yields the per-layer shares and counts.

Host-clock durations are *host-speed normalised*.  The sandbox this
benchmark runs in changes speed under it -- the same repetition takes
0.9 s in one second and 1.7 s in the next, in steps that last seconds
to minutes, and raw medians of ten runs spread by 5 to 41% of their
median -- so between repetitions a :class:`HostProbe` times fixed work
that shares no code with the program under test, and every duration is
scaled by ``NOMINAL_S / probe``: seconds on a host where the probe
reads ``NOMINAL_S``.  That brings the spread to 5-12%.  Raw medians are
reported beside the normalised ones.
"""

from __future__ import annotations

import resource
import time

import numpy as np

#: Before the warm-up and before every repetition, set-up is sampled
#: for this long (at least once: the repetition needs a fresh system).
SETUP_SLOT_S = 0.1
MIN_REPS = 5


def _now() -> float:
    return time.perf_counter()


class HostProbe:
    """How fast the host runs right now, as the time of two fixed
    bursts of work: a tight interpreter loop and a churn of small
    Python objects through a dict.  Nothing from ``repro`` -- a change
    to the program must not move its own yardstick -- and no single
    flavour: the neighbours that slow this sandbox down hit cache-bound
    object code (the serving stack) harder than register-bound loops
    (the playout kernel), and the geometric mean of the two bursts
    tracked every workload better than either alone."""

    #: What the probe reads at this host's usual speed, so normalised
    #: seconds stay close to real ones here.
    NOMINAL_S = 0.020
    #: Marks closer together than this are skipped unless forced.
    MIN_GAP_S = 0.5

    def __init__(self, repeats: int = 3) -> None:
        #: Bursts of each kind per mark; the fastest one counts.
        self.repeats = repeats
        self.times: list[float] = []
        self.bursts: list[float] = []

    @staticmethod
    def _loop_burst() -> float:
        t0 = _now()
        total = 0
        for i in range(200_000):
            total += i * i
        return _now() - t0

    @staticmethod
    def _object_burst() -> float:
        t0 = _now()
        table = {}
        for i in range(30_000):
            table[(i, i * 7)] = [i, (i, i + 1), {"a": i}]
        total = 0
        for i in range(0, 30_000, 3):
            total += table[(i, i * 7)][0]
        return _now() - t0

    def mark(self, force: bool = False) -> None:
        """Sample the host's speed now: the fastest of ``repeats``
        bursts of each kind, so a sub-burst hiccup does not pass for
        the prevailing speed."""
        if not force and self.times and (
            _now() - self.times[-1] < self.MIN_GAP_S
        ):
            return
        t0 = _now()
        loop = min(self._loop_burst() for _ in range(self.repeats))
        churn = min(self._object_burst() for _ in range(self.repeats))
        burst = (loop * churn) ** 0.5
        self.times.append((t0 + _now()) / 2)
        self.bursts.append(burst)

    def normalised(self, t0: float, t1: float) -> float:
        """The duration ``t1 - t0`` at nominal host speed, from the
        marks around it."""
        around = np.interp([t0, t1], self.times, self.bursts)
        return (t1 - t0) * self.NOMINAL_S / float(around.mean())


# -- one workload, untraced: the end-to-end metrics ---------------------------


def measure(workload, seed: int, seconds: float, reduced: bool = False) -> dict:
    """One warm-up, then timed repetitions for ``seconds``, each
    preceded by a slot of set-up samples; every repetition is checked
    against the warm-up's fingerprint and the reduced-size oracle
    replay closes the run.

    One set-up is what stands between a fresh process and the first
    timed call: binding the kernel library (already built -- the cache
    on disk is warm), generating the inputs, building the engine,
    service or cluster and submitting the inputs to it."""
    from repro.compiled import load_library, reset_cache

    from summary import Stats
    from workloads import PRODUCT, execute, oracle_check

    probe = HostProbe(repeats=1 if reduced else 3)
    probe.mark()
    setup_spans = []

    def set_up():
        """Sample set-up for one slot (the reduced size makes do with
        one sample); the last system built is used."""
        slot_end = _now() + (0.0 if reduced else SETUP_SLOT_S)
        while True:
            t0 = _now()
            reset_cache()
            load_library()
            inputs = workload.inputs(seed, PRODUCT, reduced)
            system = workload.system(inputs, seed, PRODUCT, reduced)
            setup_spans.append((t0, _now()))
            if _now() >= slot_end:
                return system

    warm = execute(workload, set_up())
    failures = list(warm.violations)
    attempted = warm.requests
    rep_spans = []
    probe.mark(force=True)
    deadline = _now() + seconds
    while len(rep_spans) < MIN_REPS or _now() < deadline:
        system = set_up()
        t0 = _now()
        raw = workload.run(system)
        rep_spans.append((t0, _now()))
        outcome = workload.fold(system, raw)
        probe.mark(force=True)
        attempted += outcome.requests
        failures.extend(outcome.violations)
        if outcome.fingerprint != warm.fingerprint:
            failures.append(
                f"repetition {len(rep_spans)} fingerprint differs from warm-up"
            )
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    compared, problems = oracle_check(workload, seed)
    attempted += compared
    failures.extend(problems)

    walls = [probe.normalised(t0, t1) for t0, t1 in rep_spans]
    host = {
        "setup_s": Stats.from_values(
            probe.normalised(t0, t1) for t0, t1 in setup_spans
        ),
        "wall_s": Stats.from_values(walls),
        "host_playouts_per_s": Stats.from_values(
            warm.playouts / w for w in walls
        ),
        "host_requests_per_s": Stats.from_values(
            warm.requests / w for w in walls
        ),
    }
    values = {name: stats.median for name, stats in host.items()}
    values["peak_rss_mb"] = peak_rss_mb
    values.update(warm.virtual_metrics())
    return {
        "values": values,
        "host_stats": {name: s.as_dict() for name, s in host.items()},
        "raw": {
            "setup_s": Stats.from_values(
                t1 - t0 for t0, t1 in setup_spans
            ).median,
            "wall_s": Stats.from_values(t1 - t0 for t0, t1 in rep_spans).median,
            "probe_s": Stats.from_values(probe.bursts).as_dict(),
        },
        "fingerprint": warm.fingerprint,
        "attempted": attempted,
        "failures": failures,
    }


# -- one workload, traced: the per-layer metrics ------------------------------


def _service_targets() -> list:
    """Public methods to wrap in spans while a serving workload runs."""
    from repro.core import engine_kinds
    from repro.serve import (
        ClusterRouter,
        FusedBatcher,
        GeneratorPool,
        ResultCache,
        SearchService,
    )

    targets = [
        (ClusterRouter, "run", "serve.cluster.run"),
        (SearchService, "run", "serve.service.run"),
        (FusedBatcher, "execute_demand", "serve.scheduler.execute_demand"),
        # Generator engines advance inside add (priming) and step.
        (GeneratorPool, "add", "core.step"),
        (GeneratorPool, "step", "core.step"),
        (ResultCache, "lookup", "serve.cache.lookup"),
        (ResultCache, "insert", "serve.cache.insert"),
    ]
    # Direct-path engines run a whole search inside the service.
    for cls in {kind.cls for kind in engine_kinds()}:
        targets.append((cls, "search", "core.step"))
    return targets


def trace(workload, seed: int, reduced: bool = False) -> dict:
    """Untraced and traced repetitions of the workload side by side
    (their difference is the tracing overhead); the per-layer shares
    and counts come from the traced ones."""
    from statistics import median

    from repro.util.profile import Profiler

    from spans import SpanLog
    from summary import percentile
    from workloads import PRODUCT, SearchWorkload

    values = {}
    inputs = workload.inputs(seed, PRODUCT, reduced)
    is_search = isinstance(workload, SearchWorkload)
    workload.run(workload.system(inputs, seed, PRODUCT, reduced))

    log = SpanLog()
    profiler = Profiler()
    probe = HostProbe(repeats=1 if reduced else 3)
    probe.mark()
    plain, traced = [], []
    outcome = None
    for rep in range(2 if reduced else 3):
        system = workload.system(inputs, seed, PRODUCT, reduced)
        t0 = _now()
        workload.run(system)
        plain.append((t0, _now()))
        probe.mark(force=True)

        system = workload.system(inputs, seed, PRODUCT, reduced)
        log.rep = rep
        if is_search:
            system.engine.profiler = profiler
        targets = [] if is_search else _service_targets()
        t0 = _now()
        with log.wrapping(targets), log.span("workload.run"):
            raw = workload.run(system)
        traced.append((t0, _now()))
        probe.mark(force=True)
        outcome = workload.fold(system, raw)

    plain_s = median(probe.normalised(*span) for span in plain)
    traced_s = median(probe.normalised(*span) for span in traced)
    values["trace.overhead_frac"] = (traced_s - plain_s) / plain_s

    # Shares of the traced wall: block-engine phases from the public
    # engine.profiler hook, serving layers from span self time.
    phase_s = {
        name: profiler.total_s(name)
        for name in ("select", "playout", "backprop")
    }
    phases = sum(phase_s.values())
    for name, seconds in phase_s.items():
        values[f"core.block.{name}_share"] = (
            seconds / phases if phases else 0.0
        )
    own = log.self_times()
    total = sum(own.values())
    for metric, names in (
        ("serve.cluster.self_share", ("serve.cluster.run",)),
        ("serve.cache.share", ("serve.cache.lookup", "serve.cache.insert")),
        ("serve.service.self_share", ("serve.service.run",)),
        ("serve.scheduler.share", ("serve.scheduler.execute_demand",)),
        ("core.step_share", ("core.step",)),
    ):
        values[metric] = (
            sum(own.get(name, 0.0) for name in names) / total if total else 0.0
        )

    # Exact counts of the traced repetition; a layer the workload does
    # not exercise reads 0.
    for name in COUNT_METRICS:
        values[name] = float(outcome.counts.get(name, 0.0))
    values["serve.service.ticks"] = float(
        sum(
            1
            for s in log.spans
            if s["name"] == "serve.scheduler.execute_demand"
            and s["rep"] == log.rep
        )
    )
    waits = outcome.queue_waits_s
    values["serve.service.queue_wait_p95_ms"] = (
        percentile(waits, 95) * 1e3 if waits else 0.0
    )
    return {
        "values": values,
        "spans": log.spans,
        "fingerprint": outcome.fingerprint,
        "attempted": outcome.requests,
        "failures": list(outcome.violations),
    }


#: Per-layer metrics that are counts read off the traced repetition.
COUNT_METRICS = (
    "gpu.kernels_launched",
    "gpu.lanes_per_launch_mean",
    "gpu.utilisation_mean",
    "serve.scheduler.launches",
    "serve.scheduler.pad_waste_frac",
    "serve.scheduler.tenants_per_launch_mean",
    "serve.cache.hit_rate",
    "serve.cache.coalesced",
    "serve.cache.evictions",
    "serve.overload.level_max",
    "serve.overload.shed",
    "serve.overload.degraded",
    "serve.clients.retry_amplification",
    "serve.clients.budget_denied",
    "serve.clients.breaker_opens",
)
