"""Open-loop trace-driven load and the overload-control policy.

Two halves of the overload-survival layer (docs/overload.md) live
here; the storm harness that combines them with fault plans is in
:mod:`repro.serve.storm`.

**Open-loop arrival traces.**  The closed-loop
:func:`~repro.serve.workload.make_workload` paces request ``i`` at
``i * arrival_period_s`` -- fine for throughput benchmarks, wrong for
overload studies, where arrivals must *not* slow down because the
service is drowning.  :func:`make_trace` generates a non-homogeneous
Poisson arrival process on the virtual clock via deterministic
thinning: the intensity is a base rate modulated by composable
components (:class:`FlashCrowd`), every uniform comes from
:func:`~repro.util.seeding.derive_seed`, and the same
:class:`TraceConfig` therefore always produces the same arrivals,
priority classes, tenants and positions -- storms replay
bit-identically.  Request *shape* (game/engine cycling, Zipf position
skew, backend rewriting) is delegated to the existing
:class:`~repro.serve.workload.WorkloadConfig` machinery, so a trace
composes with everything the cluster's result cache feeds on.

**Priority-aware admission & shedding.**  An :class:`OverloadPolicy`
plus :class:`HysteresisController` drive the graceful-degradation
ladder inside :class:`~repro.serve.service.SearchService`:

====== ==========================================================
level  behaviour
====== ==========================================================
0      full fidelity for every class
1      ``standard``/``batch`` budgets scaled by ``budget_factor``
2      ``standard``/``batch`` rewritten to the cheap engine spec
3      ``batch`` load-shed (explicit rejection, never silent)
4      ``standard`` load-shed too; only ``interactive`` runs
====== ==========================================================

``interactive`` traffic is never degraded or shed -- the ladder
exists to spend the other classes' fidelity on interactive p99.  The
controller escalates when normalised pressure (queue depth against
the high watermark, or p99 latency/deadline ratio against the
headroom bound) stays above 1.0 and de-escalates only after a longer
run of calm observations -- classic hysteresis, so the ladder does
not flap at the watermark.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, field

from repro.serve.request import (
    CLASS_RANK,
    PRIORITY_CLASSES,
    SearchRequest,
)
from repro.serve.workload import (
    WorkloadConfig,
    _zipf_cdf,
    shape_request,
    shape_tables,
)
from repro.util.coerce import coerce_optional
from repro.util.seeding import derive_seed


def trace_uniform(seed: int, *path) -> float:
    """Deterministic uniform in (0, 1) from a seed path (the +0.5
    offset keeps it strictly inside the open interval, so logs and
    CDF inversions never see 0 or 1)."""
    return (derive_seed(seed, *path) + 0.5) / 2.0**64


# -- arrival-intensity components -------------------------------------------


@dataclass(frozen=True)
class FlashCrowd:
    """A one-off rate spike: ``multiplier`` inside the window."""

    start_s: float
    duration_s: float
    multiplier: float

    def __post_init__(self) -> None:
        if self.duration_s <= 0:
            raise ValueError(
                f"duration_s must be positive: {self.duration_s}"
            )
        if self.multiplier <= 0:
            raise ValueError(
                f"multiplier must be positive: {self.multiplier}"
            )

    def factor(self, t: float) -> float:
        if self.start_s <= t < self.start_s + self.duration_s:
            return self.multiplier
        return 1.0

    def peak(self) -> float:
        return max(1.0, self.multiplier)


# -- the trace --------------------------------------------------------------


@dataclass(frozen=True)
class TraceConfig:
    """Shape of one open-loop arrival trace.

    ``class_mix`` and ``class_deadline_s`` are tuples of
    ``(class, value)`` pairs (kept immutable so configs hash and
    compare); ``tenant_skew`` draws each request's tenant from a
    Zipfian over ``n_tenants`` (rank 0 hottest), encoded into the
    request id as ``t<tenant>-`` so routing and journals see it.
    Request shape comes from :attr:`workload` -- its own
    ``n_requests``/``arrival_period_s``/``deadline_s`` are ignored
    (the trace owns arrivals and deadlines).
    """

    base_rate: float = 400.0
    horizon_s: float = 1.0
    seed: int = 7001
    components: tuple = ()
    class_mix: tuple = (
        ("interactive", 0.2),
        ("standard", 0.5),
        ("batch", 0.3),
    )
    class_deadline_s: tuple = (
        ("interactive", 0.05),
        ("standard", 0.25),
        ("batch", 1.0),
    )
    tenant_skew: float = 1.1
    n_tenants: int = 16
    workload: WorkloadConfig = field(default_factory=WorkloadConfig)
    #: Hard cap on generated arrivals (a runaway-intensity guard, not
    #: a tuning knob).
    max_requests: int = 100_000

    def __post_init__(self) -> None:
        if self.base_rate <= 0:
            raise ValueError(
                f"base_rate must be positive: {self.base_rate}"
            )
        if self.horizon_s <= 0:
            raise ValueError(
                f"horizon_s must be positive: {self.horizon_s}"
            )
        if self.n_tenants <= 0:
            raise ValueError(
                f"n_tenants must be positive: {self.n_tenants}"
            )
        if self.tenant_skew < 0:
            raise ValueError(
                f"tenant_skew cannot be negative: {self.tenant_skew}"
            )
        mix = dict(self.class_mix)
        for name in mix:
            if name not in CLASS_RANK:
                raise ValueError(
                    f"unknown priority class {name!r}; "
                    f"known: {PRIORITY_CLASSES}"
                )
        if not mix or any(w < 0 for w in mix.values()):
            raise ValueError(
                f"class_mix weights must be non-negative and "
                f"non-empty: {self.class_mix}"
            )
        if sum(mix.values()) <= 0:
            raise ValueError(
                f"class_mix must have positive total weight: "
                f"{self.class_mix}"
            )
        for name, deadline in self.class_deadline_s:
            if name not in CLASS_RANK:
                raise ValueError(
                    f"unknown priority class {name!r}; "
                    f"known: {PRIORITY_CLASSES}"
                )
            if deadline is not None and deadline <= 0:
                raise ValueError(
                    f"class deadline must be positive: "
                    f"{name}={deadline}"
                )

    def intensity(self, t: float) -> float:
        """Arrival rate lambda(t): base rate times every component's
        factor (components compose multiplicatively)."""
        rate = self.base_rate
        for component in self.components:
            rate *= component.factor(t)
        return rate

    def peak_rate(self) -> float:
        """An upper bound on lambda(t) -- the thinning envelope."""
        rate = self.base_rate
        for component in self.components:
            rate *= component.peak()
        return rate

    def deadline_for(self, priority: str) -> float | None:
        return dict(self.class_deadline_s).get(priority)


def _mix_cdf(class_mix: tuple) -> tuple[list[str], list[float]]:
    names = [name for name, _ in class_mix]
    total = sum(w for _, w in class_mix)
    cdf, acc = [], 0.0
    for _, w in class_mix:
        acc += w / total
        cdf.append(acc)
    return names, cdf


def _zipf_draw(u: float, cdf: list[float]) -> int:
    return min(bisect.bisect_left(cdf, u), len(cdf) - 1)


def make_trace(config: TraceConfig) -> list[SearchRequest]:
    """The open-loop trace: arrivals by thinning a Poisson process at
    the peak rate, fully determined by ``config`` (and therefore by
    its seed).  Arrival times never depend on service behaviour --
    the defining property of open-loop load."""
    lam_max = config.peak_rate()
    arrivals: list[float] = []
    t = 0.0
    i = 0
    while len(arrivals) < config.max_requests:
        u = trace_uniform(config.seed, "gap", i)
        t += -math.log(u) / lam_max
        if t >= config.horizon_s:
            break
        accept = trace_uniform(config.seed, "thin", i)
        if accept * lam_max <= config.intensity(t):
            arrivals.append(t)
        i += 1

    wl = config.workload
    tables = shape_tables(wl)
    names, mix_cdf = _mix_cdf(config.class_mix)
    tenant_cdf = _zipf_cdf(config.n_tenants, config.tenant_skew)
    requests = []
    for j, arrival in enumerate(arrivals):
        game, engine, budget, state = shape_request(wl, j, *tables)
        priority = names[
            _zipf_draw(
                trace_uniform(config.seed, "class", j), mix_cdf
            )
        ]
        tenant = _zipf_draw(
            trace_uniform(config.seed, "tenant", j), tenant_cdf
        )
        requests.append(
            SearchRequest(
                request_id=(
                    f"t{tenant:02d}-{wl.id_prefix}{j:04d}"
                ),
                game=game,
                engine=engine,
                budget_s=budget,
                seed=derive_seed(config.seed, "request", j),
                arrival_s=arrival,
                deadline_s=config.deadline_for(priority),
                state=state,
                priority=priority,
            )
        )
    return requests


# -- the overload policy ----------------------------------------------------


@dataclass(frozen=True)
class OverloadPolicy:
    """Knobs of the graceful-degradation ladder (module docstring).

    Normalised *pressure* is ``max(queue_frac / queue_high,
    ratio_p99 / headroom_high)`` where ``ratio_p99`` is the p99 of
    completed requests' latency/deadline ratios over the last
    ``window`` completions (a miss contributes ``miss_penalty``).
    The controller escalates after ``escalate_after`` consecutive
    observations at or above 1.0 and de-escalates after
    ``deescalate_after`` consecutive observations at or below
    ``release``.
    """

    #: Queue-depth fraction of ``max_queue`` treated as pressure 1.0.
    queue_high: float = 0.5
    #: Latency/deadline p99 ratio treated as pressure 1.0 (0.9 means
    #: "p99 is eating 90% of its deadline budget").
    headroom_high: float = 0.9
    #: Pressure at or below which an observation counts as calm.
    release: float = 0.4
    escalate_after: int = 2
    deescalate_after: int = 8
    max_level: int = 4
    #: Level-1 budget multiplier for ``standard``/``batch``.
    budget_factor: float = 0.5
    #: Level-2 engine spec for ``standard``/``batch``.
    cheap_engine: str = "sequential"
    #: Sliding-window size (completions) for the headroom p99.
    window: int = 64
    #: Ratio a deadline miss contributes to the headroom window.
    miss_penalty: float = 2.0
    #: Per-tenant in-class fairness cap: no tenant may occupy more
    #: than this fraction of one class's wait queue (``max_queue``
    #: scaled).  When a tenant is over its cap, its worst-deadline
    #: queued request is shed (explicitly, with
    #: ``extras["fairness_evicted"]``) to make room -- one hot tenant
    #: cannot monopolise a class and starve its neighbours.  ``None``
    #: disables the cap.
    tenant_queue_frac: float | None = None

    def __post_init__(self) -> None:
        if self.queue_high <= 0 or self.headroom_high <= 0:
            raise ValueError(
                "queue_high and headroom_high must be positive"
            )
        if not 0 <= self.release < 1.0:
            raise ValueError(
                f"release must be in [0, 1): {self.release}"
            )
        if self.escalate_after <= 0 or self.deescalate_after <= 0:
            raise ValueError(
                "escalation streak lengths must be positive"
            )
        if not 1 <= self.max_level <= 4:
            raise ValueError(
                f"max_level must be in [1, 4]: {self.max_level}"
            )
        if not 0 < self.budget_factor <= 1.0:
            raise ValueError(
                f"budget_factor must be in (0, 1]: "
                f"{self.budget_factor}"
            )
        if self.window <= 0:
            raise ValueError(
                f"window must be positive: {self.window}"
            )
        if self.tenant_queue_frac is not None and not (
            0.0 < self.tenant_queue_frac <= 1.0
        ):
            raise ValueError(
                f"tenant_queue_frac must be in (0, 1]: "
                f"{self.tenant_queue_frac}"
            )
        from repro.core.spec import EngineSpec

        EngineSpec.coerce(self.cheap_engine)

    coerce = classmethod(coerce_optional)

    # -- ladder semantics --------------------------------------------------

    def budget_scale_for(self, level: int, priority: str) -> float:
        """Budget multiplier at activation: interactive is never
        squeezed; other classes take ``budget_factor`` from rung 1."""
        if priority == "interactive" or level < 1:
            return 1.0
        return self.budget_factor

    def spec_for(self, level: int, priority: str, engine):
        """Engine spec at activation: rung 2 rewrites non-interactive
        requests onto the cheap spec."""
        if priority == "interactive" or level < 2:
            return engine
        return self.cheap_engine

    def degrade_level_for(self, level: int, priority: str) -> int:
        """The ladder rung actually applied to one activation."""
        if priority == "interactive":
            return 0
        return min(level, 2)

    def shed_rank(self, level: int) -> int | None:
        """Lowest class rank shed at ``level`` (``None`` -> nothing
        is shed).  Level 3 sheds ``batch`` (rank 2); level 4 sheds
        ``standard`` too (rank 1); ``interactive`` (rank 0) never."""
        if level >= 4:
            return CLASS_RANK["standard"]
        if level >= 3:
            return CLASS_RANK["batch"]
        return None

    def sheds(self, level: int, priority: str) -> bool:
        rank = self.shed_rank(level)
        return rank is not None and CLASS_RANK[priority] >= rank


class HysteresisController:
    """Escalates/de-escalates the ladder on streaks of pressure
    observations (one observation per service scheduling round).
    Asymmetric streak lengths give the classic hysteresis loop:
    quick to protect, slow to relax."""

    def __init__(self, policy: OverloadPolicy) -> None:
        self.policy = policy
        self.level = 0
        self.peak_level = 0
        self.observations = 0
        self.escalations = 0
        self.deescalations = 0
        self._high_streak = 0
        self._calm_streak = 0

    def observe(self, pressure: float) -> int:
        """Fold one pressure sample; returns the (possibly new)
        ladder level."""
        self.observations += 1
        if pressure >= 1.0:
            self._high_streak += 1
            self._calm_streak = 0
        elif pressure <= self.policy.release:
            self._calm_streak += 1
            self._high_streak = 0
        else:
            self._high_streak = 0
            self._calm_streak = 0
        if (
            self._high_streak >= self.policy.escalate_after
            and self.level < self.policy.max_level
        ):
            self.level += 1
            self.escalations += 1
            self._high_streak = 0
        elif (
            self._calm_streak >= self.policy.deescalate_after
            and self.level > 0
        ):
            self.level -= 1
            self.deescalations += 1
            self._calm_streak = 0
        self.peak_level = max(self.peak_level, self.level)
        return self.level
