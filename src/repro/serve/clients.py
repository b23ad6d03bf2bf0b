"""Closed-loop clients: retry storms and the defenses that tame them.

PR 9's overload layer is strictly *open-loop*: a shed or rejected
request simply vanishes from the offered load.  Real clients do the
opposite -- they retry -- and that feedback loop is exactly what turns
a transient flash crowd into a sustained **metastable** outage: the
crowd ends, but the retry backlog keeps offered load above capacity,
failures keep minting new retries, and goodput never recovers.

This module closes the loop and then defends it, all on the virtual
clock and all seeded (a retry storm replays bit-identically):

* :class:`ClientRetryPolicy` -- how a failed request comes back:
  ``none`` / ``immediate`` / ``fixed`` / ``exponential`` backoff with
  deterministic seeded jitter, an attempt cap, and per-class give-up
  deadlines (an interactive user will not wait two seconds for a
  move).
* :class:`ClientPopulation` -- one client per tenant (the ``t<n>-``
  prefix of trace request ids).  Every SHED / REJECTED / MISSED
  outcome is offered back as a retry with attempt lineage on the id
  (``X``, ``X~a1``, ``X~a2`` -- :func:`repro.serve.request.retry_id`);
  every outcome also feeds the client's defenses:

  - a per-client :class:`CircuitBreaker` (closed -> open -> half-open
    on the virtual clock) that fails retries fast while the server is
    drowning, and
  - an :class:`AdaptiveThrottle` that rejects retries client-side
    with probability driven by the observed accept ratio (the classic
    max(0, (requests - k*accepts)/(requests+1)) rule).

* :class:`RetryBudget` -- the *server-side* defense: token-bucket
  admission that distinguishes first-tries from retries by attempt
  lineage.  First-tries never spend a token (interactive first-tries
  in particular are never starved by someone else's retry flood);
  each admitted first-try refills the bucket a little, and a retry is
  only admitted while a whole token is available -- so retry traffic
  is capped at a fraction of first-try traffic, which is what breaks
  the storm's feedback loop.
* :class:`MetastabilityDetector` -- the instrument: flags sustained
  goodput-below-offered *after* the triggering crowd has cleared,
  which is the defining signature of a metastable failure state (the
  trigger is gone; the bad equilibrium remains).

The storm harness that drives all of this is :mod:`repro.serve.storm`,
and the measured defended-vs-undefended differential is
``benchmarks/REPORT_retrystorm.md``.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field, replace

from repro.serve.request import (
    COMPLETED,
    MISSED,
    REJECTED,
    SHED,
    RequestRecord,
    SearchRequest,
    attempt_of,
    lineage_root,
    retry_id,
    tenant_of,
)
from repro.util.coerce import coerce_optional
from repro.util.seeding import derive_seed


def client_uniform(seed: int, *path) -> float:
    """Deterministic uniform in (0, 1) from a seed path -- the client
    layer's analogue of :func:`repro.serve.overload.trace_uniform`
    (kept separate so the two streams cannot collide)."""
    return (derive_seed(seed, "clients", *path) + 0.5) / 2.0**64


#: Retry kinds a :class:`ClientRetryPolicy` understands.
RETRY_KINDS = ("none", "immediate", "fixed", "exponential")

#: Outcomes a client retries (completions never come back).
RETRIABLE_STATUSES = frozenset({SHED, REJECTED, MISSED})

#: Exponential backoff growth per retry (``exponential`` only).
BACKOFF_FACTOR = 2.0


@dataclass(frozen=True)
class ClientRetryPolicy:
    """How a failed request re-offers itself.

    ``max_attempts`` counts *total* tries including the first;
    ``give_up_s`` is per-class patience measured from the lineage's
    first arrival -- a retry that would fire past it is abandoned.
    Jitter is a deterministic seeded multiplier in
    ``[1 - jitter, 1 + jitter]``, so two replays of the same storm
    draw identical backoffs.
    """

    kind: str = "exponential"
    #: Base delay for ``fixed`` / ``exponential``.
    base_s: float = 0.01
    #: Backoff ceiling.
    cap_s: float = 0.16
    #: Jitter half-width as a fraction of the delay, in [0, 1).
    jitter: float = 0.25
    #: Total attempts (first try included).
    max_attempts: int = 4
    #: Per-class give-up deadlines from first arrival, as
    #: ``(class, seconds)`` pairs; a class absent here never gives up.
    give_up_s: tuple = (
        ("interactive", 0.5),
        ("standard", 1.0),
        ("batch", 2.0),
    )

    def __post_init__(self) -> None:
        if self.kind not in RETRY_KINDS:
            raise ValueError(
                f"unknown retry kind {self.kind!r}; "
                f"known: {RETRY_KINDS}"
            )
        if self.base_s < 0 or self.cap_s < 0:
            raise ValueError("backoff times cannot be negative")
        if not 0.0 <= self.jitter < 1.0:
            raise ValueError(
                f"jitter must be in [0, 1): {self.jitter}"
            )
        if self.max_attempts < 1:
            raise ValueError(
                f"max_attempts must be >= 1: {self.max_attempts}"
            )
        for name, patience in self.give_up_s:
            if patience is not None and patience <= 0:
                raise ValueError(
                    f"give-up deadline must be positive: "
                    f"{name}={patience}"
                )

    @classmethod
    def coerce(
        cls, value: "ClientRetryPolicy | dict | str | None"
    ) -> "ClientRetryPolicy | None":
        """``None`` -> no retries; a kind string or dict -> kwargs; a
        policy -> itself."""
        if value is None:
            return None
        if isinstance(value, str):
            return cls(kind=value)
        if isinstance(value, dict):
            return cls(**value)
        if isinstance(value, cls):
            return value
        raise TypeError(
            f"cannot coerce {value!r} into a ClientRetryPolicy"
        )

    def give_up_for(self, priority: str) -> float | None:
        return dict(self.give_up_s).get(priority)

    def backoff_s(self, seed: int, root: str, attempt: int) -> float:
        """Delay before attempt ``attempt`` (1-based retry index) of
        lineage ``root`` -- a pure function of the seed path, so
        replays draw identical jitter."""
        if attempt < 1:
            raise ValueError(f"retry attempts start at 1: {attempt}")
        if self.kind in ("none", "immediate"):
            return 0.0
        if self.kind == "fixed":
            delay = self.base_s
        else:
            delay = min(
                self.cap_s,
                self.base_s * BACKOFF_FACTOR ** (attempt - 1),
            )
        if self.jitter:
            u = client_uniform(seed, "jitter", root, attempt)
            delay *= 1.0 + self.jitter * (2.0 * u - 1.0)
        return delay


# -- client-side defenses ---------------------------------------------------

#: Probes a half-open breaker admits (success closes, failure
#: re-opens).
HALF_OPEN_PROBES = 1


@dataclass(frozen=True)
class BreakerConfig:
    """Knobs of one per-client circuit breaker."""

    #: Consecutive failures that trip the breaker open.
    failure_threshold: int = 5
    #: Open dwell before the breaker half-opens.
    reset_timeout_s: float = 0.1

    def __post_init__(self) -> None:
        if self.failure_threshold < 1:
            raise ValueError(
                f"failure_threshold must be >= 1: "
                f"{self.failure_threshold}"
            )
        if self.reset_timeout_s <= 0:
            raise ValueError(
                f"reset_timeout_s must be positive: "
                f"{self.reset_timeout_s}"
            )

    coerce = classmethod(coerce_optional)


#: Circuit-breaker states.
BREAKER_CLOSED = "closed"
BREAKER_OPEN = "open"
BREAKER_HALF_OPEN = "half-open"


class CircuitBreaker:
    """Closed -> open -> half-open on the virtual clock.

    The breaker *observes* every outcome of its client (first-tries
    and retries alike -- consecutive failures are consecutive
    failures) but only *gates* retries: first-tries are the trace's
    open-loop arrivals and always reach the server.  While open, a
    retry fails fast client-side; after ``reset_timeout_s`` the
    breaker half-opens and admits ``HALF_OPEN_PROBES`` probes -- one
    success closes it, one failure re-opens it.
    """

    def __init__(self, config: BreakerConfig) -> None:
        self.config = config
        self.state = BREAKER_CLOSED
        self.opens = 0
        self.closes = 0
        self._consecutive_failures = 0
        self._opened_s = 0.0
        self._probes = 0

    def allow(self, t: float) -> bool:
        """May a retry fire at virtual time ``t``?  (Mutating: an
        open breaker past its dwell transitions to half-open, and a
        half-open admission consumes a probe.)"""
        if self.state == BREAKER_CLOSED:
            return True
        if self.state == BREAKER_OPEN:
            if t < self._opened_s + self.config.reset_timeout_s:
                return False
            self.state = BREAKER_HALF_OPEN
            self._probes = 0
        if self._probes < HALF_OPEN_PROBES:
            self._probes += 1
            return True
        return False

    def on_success(self, t: float) -> None:
        self._consecutive_failures = 0
        if self.state == BREAKER_HALF_OPEN:
            self.state = BREAKER_CLOSED
            self._probes = 0
            self.closes += 1

    def on_failure(self, t: float) -> None:
        self._consecutive_failures += 1
        if self.state == BREAKER_HALF_OPEN:
            self._trip(t)
        elif (
            self.state == BREAKER_CLOSED
            and self._consecutive_failures
            >= self.config.failure_threshold
        ):
            self._trip(t)

    def _trip(self, t: float) -> None:
        self.state = BREAKER_OPEN
        self._opened_s = t
        self._probes = 0
        self._consecutive_failures = 0
        self.opens += 1


@dataclass(frozen=True)
class ThrottleConfig:
    """Knobs of the adaptive client throttle."""

    #: Accept multiplier ``k``: retries start being dropped once the
    #: client's requests exceed ``k`` times its accepts.
    k: float = 2.0
    #: Outcomes remembered per client.
    window: int = 64

    def __post_init__(self) -> None:
        if self.k <= 0:
            raise ValueError(f"k must be positive: {self.k}")
        if self.window < 1:
            raise ValueError(
                f"window must be >= 1: {self.window}"
            )

    coerce = classmethod(coerce_optional)


class AdaptiveThrottle:
    """Client-side probabilistic retry rejection from the observed
    accept ratio: ``p = max(0, (requests - k*accepts) / (requests+1))``
    over the last ``window`` outcomes.  A healthy server (accepts
    tracking requests) gives p = 0; a server rejecting most traffic
    pushes p toward 1 and the client stops offering retries it would
    only burn."""

    def __init__(self, config: ThrottleConfig) -> None:
        self.config = config
        self._outcomes: "deque[bool]" = deque(maxlen=config.window)

    def observe(self, accepted: bool) -> None:
        self._outcomes.append(accepted)

    def reject_probability(self) -> float:
        n = len(self._outcomes)
        if n == 0:
            return 0.0
        accepts = sum(self._outcomes)
        return max(
            0.0, (n - self.config.k * accepts) / (n + 1.0)
        )


# -- the server-side retry budget -------------------------------------------


@dataclass
class RetryBudget:
    """Token-bucket retry admission on the server.

    First-tries are never charged (and interactive first-tries in
    particular can never be starved by the budget); each admitted
    first-try refills ``fill_per_first_try`` tokens up to ``cap``.  A
    retry -- recognised by attempt lineage on its request id -- is
    admitted only while a whole token is available and spends it, so
    sustained retry traffic is capped at roughly
    ``fill_per_first_try`` of first-try traffic.  A budget-rejected
    retry terminates REJECTED with ``extras["budget_rejected"]``
    before it costs any queue space or device time -- the cheap early
    rejection that keeps a retry flood from eating the capacity the
    first-tries need to actually succeed.
    """

    fill_per_first_try: float = 0.2
    cap: float = 20.0
    initial: float = 5.0
    granted: int = 0
    rejected: int = 0
    tokens: float = field(init=False, default=0.0)

    def __post_init__(self) -> None:
        if self.fill_per_first_try < 0:
            raise ValueError(
                f"fill_per_first_try cannot be negative: "
                f"{self.fill_per_first_try}"
            )
        if self.cap <= 0:
            raise ValueError(f"cap must be positive: {self.cap}")
        if self.initial < 0:
            raise ValueError(
                f"initial cannot be negative: {self.initial}"
            )
        self.tokens = min(self.initial, self.cap)

    coerce = classmethod(coerce_optional)

    def on_first_try(self) -> None:
        self.tokens = min(
            self.cap, self.tokens + self.fill_per_first_try
        )

    def spend(self) -> bool:
        """Admit one retry if a whole token is available."""
        if self.tokens >= 1.0:
            self.tokens -= 1.0
            self.granted += 1
            return True
        self.rejected += 1
        return False


# -- the population ---------------------------------------------------------


@dataclass(frozen=True)
class ClientConfig:
    """One closed-loop client population: retry behaviour plus the
    optional client-side defenses.  ``coerce`` accepts nested dicts /
    bools for every field, so a storm config can carry the whole
    client model as plain data."""

    retry: ClientRetryPolicy = field(
        default_factory=ClientRetryPolicy
    )
    breaker: BreakerConfig | None = None
    throttle: ThrottleConfig | None = None
    seed: int = 0

    @classmethod
    def coerce(
        cls, value: "ClientConfig | dict | bool | None"
    ) -> "ClientConfig | None":
        if value is None or value is False:
            return None
        if value is True:
            return cls()
        if isinstance(value, dict):
            value = dict(value)
            retry = ClientRetryPolicy.coerce(
                value.pop("retry", ClientRetryPolicy())
            )
            if retry is None:
                retry = ClientRetryPolicy(kind="none")
            return cls(
                retry=retry,
                breaker=BreakerConfig.coerce(
                    value.pop("breaker", None)
                ),
                throttle=ThrottleConfig.coerce(
                    value.pop("throttle", None)
                ),
                **value,
            )
        if isinstance(value, cls):
            return value
        raise TypeError(
            f"cannot coerce {value!r} into a ClientConfig"
        )


class _Client:
    """Per-tenant state: the breaker and the throttle."""

    def __init__(self, config: ClientConfig) -> None:
        self.breaker = (
            CircuitBreaker(config.breaker)
            if config.breaker is not None
            else None
        )
        self.throttle = (
            AdaptiveThrottle(config.throttle)
            if config.throttle is not None
            else None
        )


class ClientPopulation:
    """The seeded closed-loop client population.

    :meth:`on_outcome` is the feedback seam: the service calls it
    with every terminal record, and a SHED / REJECTED / MISSED
    outcome may come back as the next attempt of its lineage -- a
    fresh :class:`SearchRequest` with the retry id, a backoff'd
    arrival and a derived seed -- unless the attempt cap, the
    give-up deadline, the client's breaker or its throttle suppresses
    it.  Everything is a pure function of (config seed, lineage,
    attempt), so a storm replays bit-identically.
    """

    def __init__(self, config: ClientConfig) -> None:
        self.config = config
        self.retry = config.retry
        self._clients: "dict[str | None, _Client]" = {}
        self._first_arrival: "dict[str, float]" = {}
        #: Feedback accounting.
        self.successes = 0
        self.failures = 0
        self.retries_scheduled = 0
        self.suppressed_breaker = 0
        self.suppressed_throttle = 0
        self.exhausted_attempts = 0
        self.gave_up = 0

    @classmethod
    def coerce(
        cls,
        value: (
            "ClientPopulation | ClientConfig | dict | bool | None"
        ),
    ) -> "ClientPopulation | None":
        if isinstance(value, cls):
            return value
        config = ClientConfig.coerce(value)
        if config is None:
            return None
        return cls(config)

    # -- aggregate breaker accounting -----------------------------------

    @property
    def breaker_opens(self) -> int:
        return sum(
            c.breaker.opens
            for c in self._clients.values()
            if c.breaker is not None
        )

    @property
    def breaker_closes(self) -> int:
        return sum(
            c.breaker.closes
            for c in self._clients.values()
            if c.breaker is not None
        )

    def open_breakers(self) -> int:
        return sum(
            1
            for c in self._clients.values()
            if c.breaker is not None
            and c.breaker.state == BREAKER_OPEN
        )

    # -- the feedback seam ----------------------------------------------

    def _client(self, tenant: str | None) -> _Client:
        client = self._clients.get(tenant)
        if client is None:
            client = _Client(self.config)
            self._clients[tenant] = client
        return client

    def on_outcome(
        self, record: RequestRecord, now: float
    ) -> SearchRequest | None:
        """Fold one terminal outcome; maybe return the next attempt."""
        request = record.request
        rid = request.request_id
        client = self._client(tenant_of(rid))
        if record.status == COMPLETED:
            self.successes += 1
            if client.breaker is not None:
                client.breaker.on_success(now)
            if client.throttle is not None:
                client.throttle.observe(True)
            return None
        if record.status not in RETRIABLE_STATUSES:
            return None
        self.failures += 1
        if client.breaker is not None:
            client.breaker.on_failure(now)
        if client.throttle is not None:
            # MISSED means the server accepted (and burned capacity
            # on) the request; SHED/REJECTED are server pushback.
            client.throttle.observe(record.status == MISSED)
        policy = self.retry
        if policy is None or policy.kind == "none":
            return None
        attempt = attempt_of(rid) + 1
        if attempt >= policy.max_attempts:
            self.exhausted_attempts += 1
            return None
        root = lineage_root(rid)
        first_arrival = self._first_arrival.setdefault(
            root, request.arrival_s
        )
        retry_at = now + policy.backoff_s(
            self.config.seed, root, attempt
        )
        patience = policy.give_up_for(request.priority)
        if (
            patience is not None
            and retry_at > first_arrival + patience
        ):
            self.gave_up += 1
            return None
        if client.breaker is not None and not client.breaker.allow(
            retry_at
        ):
            self.suppressed_breaker += 1
            return None
        if client.throttle is not None:
            p = client.throttle.reject_probability()
            if p > 0.0 and (
                client_uniform(
                    self.config.seed, "throttle", root, attempt
                )
                < p
            ):
                self.suppressed_throttle += 1
                return None
        self.retries_scheduled += 1
        return replace(
            request,
            request_id=retry_id(root, attempt),
            arrival_s=retry_at,
            seed=derive_seed(request.seed, "client-retry", attempt),
        )


# -- the metastability instrument -------------------------------------------

#: Consecutive trapped bins that make a trap.
SUSTAIN_BINS = 3


@dataclass(frozen=True)
class MetastabilityVerdict:
    """What the detector saw after the trigger cleared."""

    #: Sustained goodput-below-offered after the crowd ended.
    trapped: bool
    #: Start of the post-trigger observation window.
    window_start_s: float
    window_end_s: float
    #: Arrivals (first-tries + retries) in the window.
    offered: int
    #: Completions-within-deadline finishing in the window.
    goodput: int
    #: Per-bin ``(offered, goodput)`` counts.
    bins: tuple = ()
    #: Longest run of consecutive trapped bins.
    trapped_bins: int = 0

    @property
    def goodput_ratio(self) -> float:
        if self.offered <= 0:
            return 1.0
        return self.goodput / self.offered


@dataclass(frozen=True)
class MetastabilityDetector:
    """Flags the metastable signature: the triggering crowd is gone,
    offered load is still there (the retry backlog), and goodput
    stays pinned below it.

    The window ``[clear_s + settle_s, horizon_s]`` is binned; a bin is
    *trapped* when its offered arrivals exceed ``min_offered_rate``
    while completions-within-deadline stay below ``goodput_frac`` of
    them.  ``SUSTAIN_BINS`` consecutive trapped bins is a trap -- one
    bad bin is a draining backlog, a sustained run is the bad
    equilibrium.
    """

    bin_s: float = 0.05
    #: Grace after the trigger clears (the in-flight crowd drains).
    settle_s: float = 0.05
    #: A trapped bin completes less than this fraction of arrivals.
    goodput_frac: float = 0.5
    #: Offered arrivals/s below which a bin is idle, not trapped.
    min_offered_rate: float = 40.0

    def __post_init__(self) -> None:
        if self.bin_s <= 0:
            raise ValueError(
                f"bin_s must be positive: {self.bin_s}"
            )
        if self.settle_s < 0:
            raise ValueError(
                f"settle_s cannot be negative: {self.settle_s}"
            )
        if not 0.0 < self.goodput_frac <= 1.0:
            raise ValueError(
                f"goodput_frac must be in (0, 1]: "
                f"{self.goodput_frac}"
            )

    coerce = classmethod(coerce_optional)

    def analyze(
        self,
        records: "list[RequestRecord]",
        clear_s: float,
        horizon_s: float,
    ) -> MetastabilityVerdict:
        """Judge one run's records against the post-trigger window
        (``clear_s`` = when the triggering crowd ended)."""
        start = clear_s + self.settle_s
        end = horizon_s
        if end <= start:
            return MetastabilityVerdict(
                trapped=False,
                window_start_s=start,
                window_end_s=end,
                offered=0,
                goodput=0,
            )
        n_bins = max(1, math.ceil((end - start) / self.bin_s))
        offered = [0] * n_bins
        goodput = [0] * n_bins

        def bin_of(t: float) -> int | None:
            if not start <= t < end:
                return None
            return min(n_bins - 1, int((t - start) / self.bin_s))

        for record in records:
            b = bin_of(record.request.arrival_s)
            if b is not None:
                offered[b] += 1
            if not record.attained or record.finish_s is None:
                continue
            b = bin_of(record.finish_s)
            if b is not None:
                goodput[b] += 1

        min_per_bin = self.min_offered_rate * self.bin_s
        best_run = run = 0
        for o, g in zip(offered, goodput):
            if o >= min_per_bin and g < self.goodput_frac * o:
                run += 1
                best_run = max(best_run, run)
            else:
                run = 0
        return MetastabilityVerdict(
            trapped=best_run >= SUSTAIN_BINS,
            window_start_s=start,
            window_end_s=end,
            offered=sum(offered),
            goodput=sum(goodput),
            bins=tuple(zip(offered, goodput)),
            trapped_bins=best_run,
        )


def post_crowd_attainment(
    records: "list[RequestRecord]",
    clear_s: float,
    priority: str = "interactive",
) -> float:
    """SLO attainment restricted to requests *arriving* after
    ``clear_s`` (crowd end + settle) -- the recovery gate.  A system
    that escaped the trap meets deadlines for fresh post-crowd work
    even if crowd-era work was sacrificed; a metastable one keeps
    failing it.  Returns 1.0 when no such request exists."""
    met = total = 0
    for record in records:
        request = record.request
        if request.priority != priority:
            continue
        if request.arrival_s < clear_s:
            continue
        total += 1
        if record.attained:
            met += 1
    return met / total if total else 1.0
