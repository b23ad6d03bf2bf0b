"""The serving stack's calibrated operating points, each stated once.

Every serving number in the docs and ``benchmarks/REPORT_*.md`` was
measured at one of these four rows (table: docs/serving.md,
"Scenarios").  A row is a plain function of its seed returning the
config objects the stack already takes, so ``serve-bench``,
``benchmarks/`` and the tests run the same point by construction and
move off it with :func:`dataclasses.replace` (tiers, CLI flags).
"""

from __future__ import annotations

from repro.serve.overload import FlashCrowd, TraceConfig
from repro.serve.request import PRIORITY_CLASSES
from repro.serve.storm import StormConfig
from repro.serve.workload import WorkloadConfig


def mixed(seed: int = 2011) -> tuple[WorkloadConfig, dict]:
    """A closed batch of 64 mixed requests (three games, six engine
    specs) on one 4-device, 64-slot service: ``(workload, service
    kwargs)``."""
    workload = WorkloadConfig(
        n_requests=64, seed=seed, budget_scale=1.0, deadline_s=2.0
    )
    return workload, dict(n_devices=4, max_active=64, seed=seed)


def cluster_contended(
    seed: int = 2011, skewed: bool = False
) -> tuple[WorkloadConfig, dict]:
    """64 deadline-free requests for deliberately contended shards (2
    devices, 4 slots: sharding pays off when one node saturates, which
    a virtual node with a huge admission window never does):
    ``(workload, ClusterRouter kwargs)``.  Independent traffic draws
    from 256 positions per game, so duplicates -- and cache hits -- are
    rare; ``skewed`` traffic is Zipf(1.1) over a hot pool of 12."""
    workload = WorkloadConfig(
        n_requests=64,
        seed=seed,
        budget_scale=0.25,
        deadline_s=None,
        position_skew=1.1 if skewed else 0.0,
        position_pool=12 if skewed else 256,
    )
    return workload, dict(
        n_devices=2, max_active=4, seed=seed, enforce_deadlines=False
    )


def _storm_trace(seed, base_rate, horizon_s, crowd, deadlines):
    """The storms' traffic: cheap two-engine requests at quarter
    budgets, ``crowd`` (if any) over the base rate, per-class
    ``deadlines`` (interactive first)."""
    return TraceConfig(
        base_rate=base_rate,
        horizon_s=horizon_s,
        seed=seed,
        components=(crowd,) if crowd else (),
        class_deadline_s=tuple(zip(PRIORITY_CLASSES, deadlines)),
        workload=WorkloadConfig(
            seed=seed, engines=("sequential", "root:2"), budget_scale=0.25
        ),
    )


def storm(seed: int = 11, defended: bool = True) -> StormConfig:
    """Open-loop overload (docs/overload.md): 450 req/s with a 4x flash
    crowd from 0.1 s to 0.5 s, peaking ~4x past what the 2-device node
    sustains.  Undefended, interactive attainment collapses below 50%
    as the queue backs up through every deadline; defended (ladder +
    autoscaler up to 8 devices) it holds >= 95% while standard / batch
    absorb the shedding.  Calibrated at seed 11."""
    crowd = FlashCrowd(start_s=0.1, duration_s=0.4, multiplier=4.0)
    autoscale = dict(max_devices=8, scaleup_lag_s=0.03)
    return StormConfig(
        trace=_storm_trace(
            seed,
            base_rate=450.0,
            horizon_s=0.6,
            crowd=crowd,
            deadlines=(0.1, 0.3, 1.0),
        ),
        n_devices=2,
        max_active=32,
        max_queue=128,
        seed=seed,
        overload=True if defended else None,
        autoscale=autoscale if defended else None,
    )


def retry_storm(
    seed: int = 11, defended: bool = True, crowd: bool = True
) -> StormConfig:
    """Closed-loop retry storm (docs/overload.md, "Closed-loop
    clients"): a base load the node sustains comfortably
    (``crowd=False``: every class at 100%, no retry offered -- the
    healthy equilibrium exists) plus a 10x flash crowd from 0.1 s to
    0.4 s and aggressive but bounded client retries (short exponential
    backoff, 10 attempts, multi-second patience: enough feedback gain
    to sustain the trap).  Deadlines sit just above the healthy p99, so
    undefended each miss mints a retry and offered load stays pinned
    above goodput long after the crowd clears.  Defended adds a ladder
    tuned to *let go* quickly once pressure clears (small window, early
    release -- a sticky ladder is itself a metastable state), the
    server-side retry budget, per-client breakers and the adaptive
    throttle.  Calibrated at seed 11."""
    flash = FlashCrowd(start_s=0.1, duration_s=0.3, multiplier=10.0)
    retry = dict(
        kind="exponential",
        base_s=0.02,
        cap_s=0.16,
        jitter=0.3,
        max_attempts=10,
        give_up_s=tuple(zip(PRIORITY_CLASSES, (2.0, 3.0, 4.0))),
    )
    clients = dict(retry=retry, seed=seed)
    overload = retry_budget = None
    if defended:
        overload = dict(
            max_level=3, window=16, release=0.6, deescalate_after=3
        )
        retry_budget = dict(fill_per_first_try=0.1, cap=10.0, initial=2.0)
        clients.update(
            breaker=dict(failure_threshold=5, reset_timeout_s=0.1),
            throttle=dict(k=1.5, window=64),
        )
    return StormConfig(
        trace=_storm_trace(
            seed,
            base_rate=150.0,
            horizon_s=1.0,
            crowd=flash if crowd else None,
            deadlines=(0.1, 0.2, 0.4),
        ),
        n_devices=2,
        max_active=16,
        max_queue=64,
        seed=seed,
        overload=overload,
        clients=clients,
        retry_budget=retry_budget,
        detector=dict(
            bin_s=0.05, settle_s=0.1, goodput_frac=0.5, min_offered_rate=40.0
        ),
    )
