"""Open-loop trace-driven load and the overload-control policy.

Two halves of the overload-survival layer (docs/overload.md) live
here; the storm harness that combines them with fault plans is in
:mod:`repro.serve.storm`.

**Open-loop arrival traces.**  The closed-loop
:func:`~repro.serve.workload.make_workload` releases every request at
once, as a closed batch -- fine for throughput benchmarks, wrong for
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
1      ``standard``/``batch`` budgets scaled by ``BUDGET_FACTOR``
2      ``standard``/``batch`` rewritten to ``CHEAP_ENGINE``
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

#: Share of arrivals in each priority class, as ``(class, weight)``.
CLASS_MIX = (("interactive", 0.2), ("standard", 0.5), ("batch", 0.3))
#: Tenants a trace draws from, and the Zipf exponent of the draw
#: (rank 0 hottest).
N_TENANTS = 16
TENANT_SKEW = 1.1
#: Hard cap on generated arrivals (a runaway-intensity guard):
#: :func:`make_trace` refuses a trace that would pass it.
MAX_REQUESTS = 100_000


@dataclass(frozen=True)
class TraceConfig:
    """Shape of one open-loop arrival trace.

    ``class_deadline_s`` is a tuple of ``(class, deadline)`` pairs
    (kept immutable so configs hash and compare); each request's
    class is drawn from :data:`CLASS_MIX` and its tenant from a
    Zipfian over :data:`N_TENANTS`, encoded into the request id as
    ``t<tenant>-`` so routing and journals see it.  Request shape
    comes from :attr:`workload` -- its own ``n_requests`` /
    ``deadline_s`` are ignored (the trace owns arrivals and
    deadlines).
    """

    base_rate: float = 400.0
    horizon_s: float = 1.0
    seed: int = 7001
    components: tuple = ()
    class_deadline_s: tuple = (
        ("interactive", 0.05),
        ("standard", 0.25),
        ("batch", 1.0),
    )
    workload: WorkloadConfig = field(default_factory=WorkloadConfig)

    def __post_init__(self) -> None:
        if self.base_rate <= 0:
            raise ValueError(
                f"base_rate must be positive: {self.base_rate}"
            )
        if self.horizon_s <= 0:
            raise ValueError(
                f"horizon_s must be positive: {self.horizon_s}"
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
    the defining property of open-loop load.  A trace with more than
    :data:`MAX_REQUESTS` arrivals inside its horizon is refused
    (``ValueError``), never cut short."""
    lam_max = config.peak_rate()
    arrivals: list[float] = []
    t = 0.0
    i = 0
    while True:
        u = trace_uniform(config.seed, "gap", i)
        t += -math.log(u) / lam_max
        if t >= config.horizon_s:
            break
        accept = trace_uniform(config.seed, "thin", i)
        if accept * lam_max <= config.intensity(t):
            if len(arrivals) == MAX_REQUESTS:
                raise ValueError(
                    f"trace at base rate {config.base_rate}/s (peak "
                    f"{lam_max}/s) over a {config.horizon_s} s horizon "
                    f"passes the {MAX_REQUESTS}-arrival cap at "
                    f"t={t:.6f} s; lower the rate or the horizon"
                )
            arrivals.append(t)
        i += 1

    wl = config.workload
    tables = shape_tables(wl)
    names, mix_cdf = _mix_cdf(CLASS_MIX)
    tenant_cdf = _zipf_cdf(N_TENANTS, TENANT_SKEW)
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
                request_id=f"t{tenant:02d}-r{j:04d}",
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

#: Queue-depth fraction of ``max_queue`` treated as pressure 1.0.
QUEUE_HIGH = 0.5
#: Latency/deadline p99 ratio treated as pressure 1.0 (0.9 means
#: "p99 is eating 90% of its deadline budget").
HEADROOM_HIGH = 0.9
#: Consecutive observations at or above pressure 1.0 that escalate.
ESCALATE_AFTER = 2
#: Level-1 budget multiplier for ``standard``/``batch``.
BUDGET_FACTOR = 0.5
#: Level-2 engine spec for ``standard``/``batch``.
CHEAP_ENGINE = "sequential"
#: Ratio a deadline miss contributes to the headroom window.
MISS_PENALTY = 2.0


def pressure(queue_frac: float, ratio_p99: float) -> float:
    """Normalised overload pressure (1.0 = at the watermark)."""
    return max(queue_frac / QUEUE_HIGH, ratio_p99 / HEADROOM_HIGH)


@dataclass(frozen=True)
class OverloadPolicy:
    """Knobs of the graceful-degradation ladder (module docstring).

    Normalised :func:`pressure` is ``max(queue_frac / QUEUE_HIGH,
    ratio_p99 / HEADROOM_HIGH)`` where ``ratio_p99`` is the p99 of
    completed requests' latency/deadline ratios over the last
    ``window`` completions (a miss contributes ``MISS_PENALTY``).
    The controller escalates after ``ESCALATE_AFTER`` consecutive
    observations at or above 1.0 and de-escalates after
    ``deescalate_after`` consecutive observations at or below
    ``release``.
    """

    #: Pressure at or below which an observation counts as calm.
    release: float = 0.4
    deescalate_after: int = 8
    max_level: int = 4
    #: Sliding-window size (completions) for the headroom p99.
    window: int = 64

    def __post_init__(self) -> None:
        if not 0 <= self.release < 1.0:
            raise ValueError(
                f"release must be in [0, 1): {self.release}"
            )
        if self.deescalate_after <= 0:
            raise ValueError(
                f"deescalate_after must be positive: "
                f"{self.deescalate_after}"
            )
        if not 1 <= self.max_level <= 4:
            raise ValueError(
                f"max_level must be in [1, 4]: {self.max_level}"
            )
        if self.window <= 0:
            raise ValueError(
                f"window must be positive: {self.window}"
            )

    coerce = classmethod(coerce_optional)

    # -- ladder semantics --------------------------------------------------

    def budget_scale_for(self, level: int, priority: str) -> float:
        """Budget multiplier at activation: interactive is never
        squeezed; other classes take ``BUDGET_FACTOR`` from rung 1."""
        if priority == "interactive" or level < 1:
            return 1.0
        return BUDGET_FACTOR

    def spec_for(self, level: int, priority: str, engine):
        """Engine spec at activation: rung 2 rewrites non-interactive
        requests onto the cheap spec."""
        if priority == "interactive" or level < 2:
            return engine
        return CHEAP_ENGINE

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
            self._high_streak >= ESCALATE_AFTER
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
