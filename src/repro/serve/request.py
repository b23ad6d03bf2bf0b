"""Search requests and their lifecycle records.

A :class:`SearchRequest` is the unit of admission into the service:
one game position to search, with a declarative engine spec, a search
budget (virtual seconds on the request's own engine clock), an
optional completion deadline (virtual seconds on the *service* clock,
relative to arrival) and a **priority class** (``interactive`` /
``standard`` / ``batch`` -- see docs/overload.md).  A
:class:`RequestRecord` tracks the request through
`PENDING -> RUNNING -> COMPLETED` (or `QUEUED`, `REJECTED`, `MISSED`,
`SHED`) and holds the latency accounting the service reports.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

from repro.core.results import SearchResult
from repro.core.spec import EngineSpec
from repro.games.base import GameState

#: Lifecycle states of a request inside the service.
PENDING = "pending"      # submitted, not yet examined
QUEUED = "queued"        # admitted into the bounded wait queue
RUNNING = "running"      # holds an active slot, search in progress
COMPLETED = "completed"  # search finished inside its deadline
REJECTED = "rejected"    # bounded queue was full at arrival
MISSED = "missed"        # deadline passed before the search finished
SHED = "shed"            # dropped by the overload controller, with an
                         # explicit rejection instead of a silent miss

TERMINAL_STATUSES = frozenset({COMPLETED, REJECTED, MISSED, SHED})

#: Priority classes, best first.  ``interactive`` traffic is never
#: load-shed by the degradation ladder; ``batch`` is the first to go.
PRIORITY_CLASSES = ("interactive", "standard", "batch")

#: Class -> dequeue rank (lower dequeues first).
CLASS_RANK = {name: i for i, name in enumerate(PRIORITY_CLASSES)}

#: Attempt-lineage separator on request ids: a closed-loop client's
#: n-th retry of request ``X`` is submitted as ``X~a<n>`` (see
#: :mod:`repro.serve.clients`).  The suffix keeps every attempt's id
#: unique (the journal and the duplicate-submission guard both key on
#: ids) while the lineage stays recoverable from the id alone --
#: recovery, routing and reporting need no side tables.
ATTEMPT_SEP = "~a"


def lineage_root(request_id: str) -> str:
    """The first attempt's id: ``"t03-mix0042~a2"`` -> ``"t03-mix0042"``."""
    head, sep, tail = request_id.rpartition(ATTEMPT_SEP)
    if sep and tail.isdigit():
        return head
    return request_id


def attempt_of(request_id: str) -> int:
    """Zero-based attempt index carried by the id (0 = first try)."""
    head, sep, tail = request_id.rpartition(ATTEMPT_SEP)
    if sep and tail.isdigit():
        return int(tail)
    return 0


def retry_id(request_id: str, attempt: int) -> str:
    """The id of attempt ``attempt`` in ``request_id``'s lineage."""
    if attempt <= 0:
        raise ValueError(f"retry attempts start at 1: {attempt}")
    return f"{lineage_root(request_id)}{ATTEMPT_SEP}{attempt}"


def tenant_of(request_id: str) -> str | None:
    """The tenant prefix of a trace-style request id
    (``"t03-mix0042"`` -> ``"t03"``), or ``None`` when the id does
    not carry one.  Tenant identity is what the closed-loop client
    population keys on."""
    root = lineage_root(request_id)
    if not root.startswith("t"):
        return None
    head = root.split("-", 1)[0]
    if len(head) > 1 and head[1:].isdigit():
        return head
    return None


@dataclass(frozen=True)
class SearchRequest:
    """One tenant's search: position + engine spec + budget + deadline.

    ``deadline_s`` is *relative to arrival* on the service clock; the
    engine's ``budget_s`` is charged on the request's private engine
    clock.  A request whose deadline elapses before its search
    completes is cancelled and reported as ``missed``.
    """

    request_id: str
    game: str
    engine: EngineSpec | str | Mapping
    budget_s: float
    seed: int
    arrival_s: float = 0.0
    deadline_s: float | None = None
    state: GameState | None = None
    #: Priority class (see :data:`PRIORITY_CLASSES`); the overload
    #: controller schedules, degrades and sheds by class.
    priority: str = "standard"

    def __post_init__(self) -> None:
        if self.budget_s <= 0:
            raise ValueError(
                f"budget must be positive: {self.budget_s}"
            )
        if self.priority not in CLASS_RANK:
            raise ValueError(
                f"unknown priority class {self.priority!r}; "
                f"known: {PRIORITY_CLASSES}"
            )
        if self.arrival_s < 0:
            raise ValueError(
                f"arrival cannot be negative: {self.arrival_s}"
            )
        if self.deadline_s is not None and self.deadline_s <= 0:
            raise ValueError(
                f"relative deadline must be positive: {self.deadline_s}"
            )
        # Fail fast on malformed specs at submission, not mid-run.
        EngineSpec.coerce(self.engine)

    @property
    def absolute_deadline_s(self) -> float | None:
        if self.deadline_s is None:
            return None
        return self.arrival_s + self.deadline_s


@dataclass
class RequestRecord:
    """One request's observed lifecycle inside a service run."""

    request: SearchRequest
    status: str = PENDING
    result: SearchResult | None = None
    start_s: float | None = None
    finish_s: float | None = None
    #: Ticks in which this request contributed merged playout lanes.
    ticks: int = 0
    #: Total playout lanes this request asked for.
    lanes: int = 0
    #: Completed, but with playout batches lost to faults (reduced
    #: effective budget) or after exhausting its launch retries.
    degraded: bool = False
    #: Playout lanes this request lost to exhausted launch chains.
    lost_lanes: int = 0
    #: Degradation-ladder rung applied at activation (0 = full spec,
    #: 1 = reduced budget, 2 = cheaper engine spec; see
    #: docs/overload.md).  Non-zero rungs also set :attr:`degraded`.
    degrade_level: int = 0
    extras: dict = field(default_factory=dict)

    @property
    def outcome(self) -> str:
        """Coarse overload-accounting outcome: ``met`` (completed at
        full fidelity), ``degraded`` (completed under the ladder or
        with fault-lost lanes), or the terminal status verbatim
        (``shed`` / ``rejected`` / ``missed``)."""
        if self.status == COMPLETED:
            return "degraded" if self.degraded else "met"
        return self.status

    @property
    def attained(self) -> bool:
        """Completed within its deadline: the one SLO predicate every
        attainment figure counts (docs/overload.md).  A request
        without a deadline counts as within, and a degraded
        completion inside its deadline attains."""
        if self.status != COMPLETED:
            return False
        deadline = self.request.deadline_s
        if deadline is None:
            return True
        latency = self.latency_s
        return latency is not None and latency <= deadline + 1e-12

    @property
    def latency_s(self) -> float | None:
        """Arrival-to-finish time on the service clock."""
        if self.finish_s is None:
            return None
        return self.finish_s - self.request.arrival_s

    @property
    def queue_wait_s(self) -> float | None:
        """Arrival-to-start time (admission + queueing delay)."""
        if self.start_s is None:
            return None
        return self.start_s - self.request.arrival_s
