"""The batched multi-tenant search service.

:class:`SearchService` accepts many simultaneous
:class:`~repro.serve.request.SearchRequest`\\ s -- mixed games, engine
specs, budgets and deadlines -- and multiplexes them over a shared
:class:`~repro.gpu.lease.DevicePool` of virtual GPUs.

Execution model (all times virtual; ``SearchService._run_loop`` is a
flat sequence of step methods, listed in order in docs/serving.md):

* **Admission.**  A request arriving when an active slot is free
  starts immediately; otherwise it waits in a bounded FIFO queue; if
  the queue is full it is rejected on the spot.  Each admitted request
  gets its own engine, built from its spec by
  :func:`repro.core.make_engine` with a private engine clock (its own
  virtual CPU core).
* **Merged ticks.**  Engines with a round policy
  (:mod:`repro.core.rounds`: sequential / root / tree / pipeline) are
  advanced in lockstep rounds: every tick, all outstanding playout
  requests are concatenated per game and executed as wide vectorised
  kernel launches (one SIMT lane per leaf) placed on the least-busy
  pooled device; then each tenant, in admission order, backs its
  answers up and selects its next round.  The tick costs the slowest
  kernel's modelled time plus the *maximum* per-request CPU charge --
  tenants' tree work overlaps, the shared accelerators are the
  contended resource.
* **Direct engines.**  GPU engines (block / leaf / hybrid / multigpu)
  run whole searches pinned to one pooled device.  Block, leaf and
  hybrid have round policies, but each owns a device
  (``engine.gpu``), so it does not join the fused tick; multigpu has
  no round policy.  The search executes against the request's private
  clock and occupies the device's in-order stream for its full
  elapsed time.
* **Deadlines.**  A request's relative deadline converts to an
  absolute service time at arrival.  At every tick boundary, active
  requests past their deadline are cancelled (``missed``, no result);
  queued requests whose deadline passed before they could start are
  likewise missed without running.

The per-request latency and per-device busy spans are recorded on a
:class:`~repro.gpu.trace.Tracer`, so a service run can be dumped to
the Chrome trace viewer and utilisation is derived from track busy
time.
"""

from __future__ import annotations

import heapq

from collections import deque
from dataclasses import dataclass

from pathlib import Path

from repro.core.backend import validate_backend
from repro.core.base import Engine
from repro.core.executors import validate_playout
from repro.core.checkpoint import (
    CheckpointError,
    EngineSnapshot,
    snapshot_bytes,
)
from repro.core.results import SearchResult
from repro.core.rounds import Round, advance_rounds
from repro.core.spec import EngineSpec, make_engine, with_stack
from repro.faults import FaultInjector, FaultPlan
from repro.games import make_game
from repro.games.base import Game
from repro.gpu.device import TESLA_C2050
from repro.gpu.lease import DevicePool
from repro.gpu.trace import Tracer
from repro.integrity import IntegrityPolicy, IntegrityState
from repro.serve.autoscale import Autoscaler, AutoscalerConfig
from repro.serve.clients import ClientPopulation, RetryBudget
from repro.serve.journal import JournalWriter, read_journal
from repro.serve.metrics import ServiceReport, percentile, summarize
from repro.serve.overload import (
    MISS_PENALTY,
    HysteresisController,
    OverloadPolicy,
    pressure,
)
from repro.serve.resilience import LaunchOutcome, ResilientLauncher
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
    RequestRecord,
    SearchRequest,
    attempt_of,
)
from repro.serve.scheduler import FusedBatcher, LaneBatcher
from repro.util.clock import Clock
from repro.util.seeding import derive_seed


#: Fixed host cost of one scheduler tick (virtual seconds), charged on
#: top of the slowest tenant's CPU time.
TICK_OVERHEAD_S = 2e-6


def _deadline_key(record: RequestRecord) -> tuple[float, float]:
    """Earliest-deadline-first order within a class queue: absolute
    deadline (none sorts last), then arrival."""
    deadline = record.request.absolute_deadline_s
    return (
        deadline if deadline is not None else float("inf"),
        record.request.arrival_s,
    )


def _pop_by_deadline(q: "deque[RequestRecord]", pick) -> RequestRecord:
    """Remove and return ``q``'s earliest-deadline (``pick=min``) or
    latest-deadline (``pick=max``) member; ties break toward the same
    end of the queue."""
    k = pick(range(len(q)), key=lambda k: (_deadline_key(q[k]), k))
    record = q[k]
    del q[k]
    return record


@dataclass
class _Active:
    """Bookkeeping for one request holding an active slot."""

    record: RequestRecord
    engine: Engine
    #: CPU time charged by the engine but not yet billed to a tick
    #: (the first round is selected at activation).
    pending_cpu_s: float = 0.0
    #: The finished result (a tenant's at its last round, a direct-path
    #: engine's at activation) and the launch chain the latter occupies.
    result: SearchResult | None = None
    outcome: LaunchOutcome | None = None


class ServiceError(RuntimeError):
    """Raised on invalid service use (submit after run, ...)."""


class ServiceCrash(RuntimeError):
    """The fault plan's scheduled crash fired: the service process is
    modelled as killed at this point.  The write-ahead journal (if
    enabled) holds everything needed to :meth:`SearchService.recover`."""


class SearchService:
    """Concurrent multi-tenant search over a shared virtual-GPU pool."""

    def __init__(
        self,
        n_devices: int = 4,
        max_active: int = 64,
        max_queue: int = 256,
        seed: int = 0,
        tracer: Tracer | None = None,
        enforce_deadlines: bool = True,
        faults: FaultPlan | str | None = None,
        backend: str | None = None,
        playout: str | None = None,
        fusion: bool = True,
        journal: "str | Path | JournalWriter | None" = None,
        checkpoint_every: int = 50,
        integrity: "IntegrityPolicy | dict | None" = None,
        overload: "OverloadPolicy | dict | bool | None" = None,
        autoscale: "AutoscalerConfig | dict | bool | None" = None,
        clients: "ClientPopulation | dict | bool | None" = None,
        retry_budget: "RetryBudget | dict | bool | None" = None,
    ) -> None:
        if max_active <= 0:
            raise ValueError(f"max_active must be positive: {max_active}")
        if max_queue < 0:
            raise ValueError(f"max_queue cannot be negative: {max_queue}")
        if checkpoint_every < 0:
            raise ValueError(
                f"checkpoint_every cannot be negative: {checkpoint_every}"
            )
        if backend is not None:
            validate_backend(backend)
        if playout is not None:
            validate_playout(playout)
        self.clock = Clock()
        self.tracer = tracer if tracer is not None else Tracer()
        self.pool = DevicePool(
            (TESLA_C2050,) * n_devices, self.clock, self.tracer
        )
        #: Overload-survival controls (docs/overload.md).  With no
        #: policy and no autoscaler, every code path below is
        #: bit-identical to the legacy FIFO service -- the overload
        #: layer is strictly opt-in.
        self.overload = OverloadPolicy.coerce(overload)
        self.controller = (
            HysteresisController(self.overload)
            if self.overload is not None
            else None
        )
        autoscale_cfg = AutoscalerConfig.coerce(autoscale)
        self.autoscaler = (
            Autoscaler(self.pool, autoscale_cfg, TESLA_C2050)
            if autoscale_cfg is not None
            else None
        )
        #: Closed-loop client population (repro.serve.clients): every
        #: terminal outcome is offered back to the clients, and a
        #: failed request may return as its next attempt -- injected
        #: into the arrival stream mid-run.  ``None`` keeps the
        #: service strictly open-loop (the legacy behaviour).
        self.clients = ClientPopulation.coerce(clients)
        #: Server-side retry budget: token-bucket admission over
        #: retries (recognised by attempt lineage on request ids);
        #: first-tries are never charged.
        self.retry_budget = RetryBudget.coerce(retry_budget)
        #: Run state, live only while :meth:`run` executes (a service
        #: runs once).  Mid-run arrival heap of ``(arrival_s,
        #: record_index)`` -- a heap, keyed exactly like a sorted
        #: arrival list, because closed-loop clients inject retries
        #: into the arrival stream mid-run.
        self._arrivals: "list[tuple[float, int]] | None" = None
        #: Per-priority-class wait queues.  With every request in the
        #: default ``standard`` class this is exactly one FIFO; with
        #: classes, dequeue order is strict priority (interactive
        #: first), FIFO within class -- or earliest deadline first
        #: within class when an overload policy is on.
        self._queues: "dict[str, deque[RequestRecord]]" = {
            name: deque() for name in PRIORITY_CLASSES
        }
        #: Requests holding an active slot, by id, and the round
        #: policies of those that advance through merged ticks -- in
        #: admission order, the order of their lanes in a tick.
        self._active: dict[str, _Active] = {}
        self._tenants: dict[str, Round] = {}
        #: Sliding window of completed latency/deadline ratios (and
        #: miss penalties) feeding controller and autoscaler.
        self._ratio_window: "deque[float] | None" = None
        if self.overload is not None or self.autoscaler is not None:
            self._ratio_window = deque(
                maxlen=(
                    self.overload.window
                    if self.overload is not None
                    else 64
                )
            )
        self.fault_plan = FaultPlan.coerce(faults)
        self.injector = (
            FaultInjector(self.fault_plan)
            if self.fault_plan is not None
            else None
        )
        self.launcher = ResilientLauncher(self.pool, injector=self.injector)
        #: Integrity-defense policy (validation / audit / quarantine
        #: knobs); the state is created only under fault injection so
        #: fault-free runs take zero integrity code paths.
        self.integrity = IntegrityPolicy.coerce(integrity)
        self.integrity_state = (
            IntegrityState(self.integrity, self.injector, 0)
            if self.injector is not None
            else None
        )
        #: Cross-tenant kernel fusion: with ``fusion`` every tick's
        #: merged demand rides one padded launch (bit-identical
        #: per-request results either way); without it, one launch per
        #: game per tick.
        self.fusion = fusion
        batcher_seed = derive_seed(seed, "serve")
        batcher_kwargs = dict(
            launcher=self.launcher,
            integrity=self.integrity_state,
            playout=playout,
        )
        if fusion:
            self.batcher: LaneBatcher = FusedBatcher(
                self.pool, batcher_seed, **batcher_kwargs
            )
        else:
            self.batcher = LaneBatcher(
                self.pool, batcher_seed, **batcher_kwargs
            )
        #: Tree backend for requests whose spec does not pick one (an
        #: ``@node`` / ``@arena`` suffix always wins); None leaves it to
        #: each request's game (``repro.core.backend.default_stack``).
        self.backend = backend
        #: Playout executor for requests whose spec does not pick one
        #: (an ``@numpy`` / ``@compiled`` suffix always wins), and the
        #: one the merged-tick batcher runs; None: each game's default.
        self.playout = playout
        self.max_active = max_active
        self.max_queue = max_queue
        self.seed = seed
        self.enforce_deadlines = enforce_deadlines
        self.ticks = 0
        self._records: list[RequestRecord] = []
        #: Ids of every record (submissions + injected retries) --
        #: duplicate-submission guard and crash-recovery dedup for
        #: client retries.
        self._record_ids: set[str] = set()
        self._ran = False
        self._games: dict[str, Game] = {}
        #: Write-ahead journal: every submission, periodic engine
        #: checkpoints and every terminal outcome are persisted before
        #: the service acts on them (see repro.serve.journal).
        if isinstance(journal, (str, Path)):
            journal = JournalWriter(journal, injector=self.injector)
        self.journal: JournalWriter | None = journal
        self.checkpoint_every = checkpoint_every
        #: Request ids already present in the journal file (recovery
        #: must not re-journal adopted submissions).
        self._journal_known: set[str] = set()
        #: Checkpoints to resume from instead of starting fresh.
        self._resume_snapshots: dict[str, EngineSnapshot] = {}
        #: Recovery accounting (populated by :meth:`recover`).
        self.recovered_requests = 0
        self.resumed_requests = 0
        self.restarted_requests = 0
        self.recovered_iterations = 0
        #: Persistence-corruption accounting (populated by
        #: :meth:`recover`): journal records skipped by the reader and
        #: journalled checkpoints the CRC envelope refused to adopt.
        self.journal_corrupt_records = 0
        self.corrupt_checkpoints = 0
        #: Journalled requests belonging to *another* shard that
        #: recovery skipped (``rid_filter`` mismatches; see
        #: :meth:`recover` and docs/cluster.md).
        self.foreign_records = 0

    # -- submission --------------------------------------------------------

    def _register(self, request: SearchRequest) -> RequestRecord:
        """Record (and journal, unless the journal already holds it) a
        request this run will serve."""
        record = RequestRecord(request=request, status=PENDING)
        self._records.append(record)
        self._record_ids.add(request.request_id)
        if (
            self.journal is not None
            and request.request_id not in self._journal_known
        ):
            self.journal.submit(request)
            self._journal_known.add(request.request_id)
        return record

    def submit(self, request: SearchRequest) -> RequestRecord:
        """Register a request for the next :meth:`run`."""
        if self._ran:
            raise ServiceError("service already ran; build a new one")
        if request.request_id in self._record_ids:
            raise ServiceError(
                f"duplicate request id {request.request_id!r}"
            )
        return self._register(request)

    def submit_all(
        self, requests: list[SearchRequest]
    ) -> list[RequestRecord]:
        return [self.submit(r) for r in requests]

    # -- execution ---------------------------------------------------------

    def _game(self, name: str) -> Game:
        game = self._games.get(name)
        if game is None:
            game = make_game(name)
            self._games[name] = game
        return game

    def _activate(self, record: RequestRecord) -> None:
        """Give ``record`` an active slot and start its search."""
        req = record.request
        record.status = RUNNING
        record.start_s = self.clock.now
        game = self._game(req.game)
        state = req.state if req.state is not None else game.initial_state()
        # Degradation ladder (docs/overload.md): the controller's
        # current rung decides, per class, whether this activation
        # runs at full fidelity, with a squeezed budget, or on the
        # cheap engine spec.  Interactive traffic always runs whole.
        budget_s = req.budget_s
        engine_source = req.engine
        if self.overload is not None:
            level = self.controller.level
            rung = self.overload.degrade_level_for(level, req.priority)
            budget_s *= self.overload.budget_scale_for(
                level, req.priority
            )
            engine_source = self.overload.spec_for(
                level, req.priority, req.engine
            )
            if rung:
                record.degrade_level = rung
                record.degraded = True
        spec = with_stack(
            EngineSpec.coerce(engine_source), self.backend, self.playout
        )
        overrides = {}
        if self.injector is not None and spec.kind in (
            "block",
            "root",
            "multigpu",
            "tree",
            "pipeline",
        ):
            # Ensemble engines share the service's fault stream: rank
            # contributions may be dropped, kernel results corrupted,
            # trees poisoned -- and the engines' integrity defenses
            # (screening, audit, quarantine) run under this policy.
            overrides["injector"] = self.injector
            overrides["integrity"] = self.integrity
        resume_from = self._resume_snapshots.pop(req.request_id, None)
        if resume_from is not None:
            # A snapshot restores only onto the tree backend that wrote
            # it, which need not be this host's default (the journal may
            # come from a host where the C library loads).
            overrides["backend"] = resume_from.backend
        engine = make_engine(
            spec, game, req.seed, clock=Clock(), **overrides
        )
        self._install_iteration_hook(req.request_id, engine)
        slot = _Active(record=record, engine=engine)
        self._active[req.request_id] = slot
        if resume_from is not None:
            engine.restore(resume_from)
        if engine.gpu is None and engine.round_policy is not None:
            before = engine.clock.now
            if resume_from is None:
                engine._begin_session(state, budget_s, None)
            result = self._open_tenant(req.request_id, engine)
            slot.pending_cpu_s = engine.clock.now - before
            if result is not None:
                # Degenerate zero-playout search: done at activation.
                self._finish(record, result)
        else:
            # Direct path: the whole search runs pinned to one pooled
            # device, occupying its stream for the modelled duration
            # (re-placed onto another healthy device if faults strike).
            result = (
                engine.resume()
                if resume_from is not None
                else engine.search(state, budget_s)
            )
            slot.result = result
            slot.outcome = self.launcher.launch(
                req.request_id,
                lambda _spec: result.elapsed_s,
                label=f"{engine.name}_search",
                lanes=getattr(
                    getattr(engine, "config", None), "total_threads", 0
                ),
                game=req.game,
            )
            if not slot.outcome.delivered:
                # Retry budget exhausted: salvage the computed result,
                # report the request degraded instead of failing it.
                record.degraded = True

    def _open_tenant(self, rid: str, engine: Engine) -> SearchResult | None:
        """Select the first round of ``engine``'s live session and
        enrol it in the merged ticks; the result instead when the
        session ends before it needs a playout."""
        rnd = engine.open_round()
        if rnd.select():
            self._tenants[rid] = rnd
            return None
        return rnd.finish()

    def _install_iteration_hook(self, rid: str, engine: Engine) -> None:
        """Journal periodic checkpoints and fire the planned crash,
        both at clean engine iteration boundaries."""
        checkpointing = (
            self.journal is not None and self.checkpoint_every > 0
        )
        crashing = (
            self.injector is not None
            and self.fault_plan.crash is not None
            and self.fault_plan.crash.site == "iteration"
        )
        if not checkpointing and not crashing:
            return

        def hook(eng: Engine, iterations: int) -> None:
            if checkpointing and iterations % self.checkpoint_every == 0:
                self.journal.checkpoint(
                    rid, iterations, snapshot_bytes(eng.snapshot())
                )
            if crashing and self.injector.crash_due(
                "iteration", iterations
            ):
                raise ServiceCrash(
                    f"planned crash at iteration {iterations} "
                    f"of request {rid!r}"
                )

        engine.iteration_hook = hook

    # -- terminal outcomes -------------------------------------------------

    def _terminate(
        self,
        record: RequestRecord,
        status: str,
        result: SearchResult | None = None,
    ) -> None:
        """The one way a request ends, with or without ever holding a
        slot: stamp the terminal outcome, then show it to the pressure
        window, the journal and the closed-loop clients, in that
        order."""
        record.status = status
        record.result = result
        record.finish_s = self.clock.now
        self._observe_outcome(record)
        self._journal_terminal(record)
        self._client_outcome(record)

    def _observe_outcome(self, record: RequestRecord) -> None:
        """Feed one terminal outcome into the pressure window the
        controller and autoscaler watch."""
        if self._ratio_window is None:
            return
        deadline = record.request.deadline_s
        if record.status == COMPLETED and deadline:
            latency = record.latency_s
            if latency is not None:
                self._ratio_window.append(latency / deadline)
        elif record.status == MISSED:
            self._ratio_window.append(MISS_PENALTY)

    def _journal_terminal(self, record: RequestRecord) -> None:
        if self.journal is not None:
            self.journal.complete(
                record.request.request_id,
                record.status,
                record.result,
                record.finish_s,
            )

    def _client_outcome(self, record: RequestRecord) -> None:
        """Offer one terminal outcome to the closed-loop clients; a
        returned retry joins the arrival stream mid-run.  Retry ids
        already present (a crash-recovered run resubmits journalled
        pre-crash retries) are never injected twice -- the client
        population still observes the outcome, the arrival already
        exists."""
        if self.clients is None or self._arrivals is None:
            return
        retry = self.clients.on_outcome(record, self.clock.now)
        if retry is None or retry.request_id in self._record_ids:
            return
        self._register(retry)
        heapq.heappush(
            self._arrivals, (retry.arrival_s, len(self._records) - 1)
        )

    def _finish(self, record: RequestRecord, result: SearchResult) -> None:
        """Complete an active request with its search result."""
        self._active.pop(record.request.request_id, None)
        self._terminate(record, COMPLETED, result)

    def _cancel(self, record: RequestRecord, status: str) -> None:
        """Terminate an admitted request without a result (``MISSED``
        deadline or ``SHED`` load), resolving everything it holds: its
        round leaves ``_tenants`` and any in-flight direct-path lease
        is abandoned, so :meth:`DevicePool.assert_drained` holds even
        for requests cancelled after admission but before (or between)
        launches."""
        rid = record.request.request_id
        self._tenants.pop(rid, None)
        slot = self._active.pop(rid, None)
        if (
            slot is not None
            and slot.outcome is not None
            and slot.outcome.lease is not None
        ):
            # The host will never wait on a cancelled request's device
            # work; resolve the lease so busy-time accounting drains.
            self.pool.abandon(slot.outcome.lease)
        self._terminate(record, status)

    # -- class queues ------------------------------------------------------

    def _queued_total(self) -> int:
        return sum(len(q) for q in self._queues.values())

    def _enqueue(self, record: RequestRecord) -> None:
        """Admit ``record`` into its class queue."""
        record.status = QUEUED
        self._queues[record.request.priority].append(record)

    def _pop_next(self) -> RequestRecord | None:
        """The next queued request to start: strict class priority,
        then FIFO -- or earliest deadline first under a policy."""
        for name in PRIORITY_CLASSES:
            q = self._queues[name]
            if q:
                if self.overload is None:
                    return q.popleft()
                return _pop_by_deadline(q, min)
        return None

    def _evict_for(self, priority: str) -> RequestRecord | None:
        """The queued request a full queue sacrifices to admit a
        higher-priority arrival: the worst (latest-deadline) member
        of the lowest-priority non-empty class strictly below
        ``priority``."""
        rank = CLASS_RANK[priority]
        for name in reversed(PRIORITY_CLASSES):
            if CLASS_RANK[name] <= rank:
                return None
            q = self._queues[name]
            if q:
                return _pop_by_deadline(q, max)
        return None

    def _drain(self, now: float) -> None:
        """Start queued requests while active slots are free; one
        whose deadline passed while it waited is missed unstarted."""
        while self._queued_total() and len(self._active) < self.max_active:
            record = self._pop_next()
            deadline = record.request.absolute_deadline_s
            if (
                self.enforce_deadlines
                and deadline is not None
                and now >= deadline
            ):
                self._terminate(record, MISSED)
            else:
                self._activate(record)

    # -- the control loop --------------------------------------------------

    def run(self) -> list[RequestRecord]:
        """Serve every submitted request to a terminal status."""
        if self._ran:
            raise ServiceError("service already ran; build a new one")
        self._ran = True
        try:
            return self._run_loop()
        except BaseException:
            # A crash -- planned (ServiceCrash) or otherwise -- must
            # not leave device leases dangling: the host will never
            # wait on that work again, so resolve every outstanding
            # lease before propagating.  assert_drained() then holds
            # for crashed runs too.
            for lease in self.pool.unresolved_leases:
                self.pool.abandon(lease)
            raise

    def _run_loop(self) -> list[RequestRecord]:
        # Adopted (already-complete) records from a recovered journal
        # are terminal before the run starts; only pending ones arrive.
        self._arrivals = [
            (record.request.arrival_s, i)
            for i, record in enumerate(self._records)
            if record.status == PENDING
        ]
        heapq.heapify(self._arrivals)
        while self._arrivals or self._queued_total() or self._active:
            now = self._skip_idle()
            self._admit_arrivals(now)
            self._drain(now)
            self._enforce_deadlines(now)
            self._complete_direct(now)
            self._control_overload(now)
            if self._tenants:
                self._merged_tick()
            else:
                self._wait_for_direct()
        # Lease-resolution invariant: every launch issued during the
        # run must have been synchronized, completed, or abandoned.
        self.pool.assert_drained()
        self._arrivals = None
        return list(self._records)

    def _skip_idle(self) -> float:
        """An idle service jumps to its next arrival; returns the
        round's timestamp."""
        if (
            self._arrivals
            and not self._active
            and not self._queued_total()
            and self._arrivals[0][0] > self.clock.now
        ):
            self.clock.advance_to(self._arrivals[0][0])
        return self.clock.now

    def _admit_arrivals(self, now: float) -> None:
        """Activate, queue, shed, or reject every due arrival, in
        arrival order.  Under a policy every arrival goes through the
        class queues (no queue-jumping past waiting tenants); without
        one, arrivals grab free slots directly."""
        arrivals = self._arrivals
        policy = self.overload
        while arrivals and arrivals[0][0] <= now:
            record = self._records[heapq.heappop(arrivals)[1]]
            priority = record.request.priority
            # Server-side retry budget: a retry (attempt lineage on
            # the id) must win a token at the front door; first-tries
            # are never charged and refill the bucket.
            if self.retry_budget is not None:
                if attempt_of(record.request.request_id) == 0:
                    self.retry_budget.on_first_try()
                elif not self.retry_budget.spend():
                    record.extras["budget_rejected"] = True
                    self._terminate(record, REJECTED)
                    continue
            if policy is not None and policy.sheds(
                self.controller.level, priority
            ):
                self._terminate(record, SHED)
            elif policy is None and len(self._active) < self.max_active:
                self._activate(record)
            elif self._queued_total() < self.max_queue:
                self._enqueue(record)
            elif policy is None:
                self._terminate(record, REJECTED)
            else:
                # A full queue sheds its worst lower-class member to
                # admit the better arrival.
                victim = self._evict_for(priority)
                if victim is not None:
                    self._terminate(victim, SHED)
                    self._enqueue(record)
                else:
                    self._terminate(record, SHED)

    def _enforce_deadlines(self, now: float) -> None:
        """Cancel active requests past their deadline at the tick
        boundary."""
        if not self.enforce_deadlines:
            return
        for slot in list(self._active.values()):
            deadline = slot.record.request.absolute_deadline_s
            if deadline is not None and now >= deadline:
                self._cancel(slot.record, MISSED)

    def _complete_direct(self, now: float) -> None:
        """Direct-path completions: delivered work finishes with its
        lease; a lost launch chain finishes (degraded) once the host
        has given up waiting on it."""
        for slot in list(self._active.values()):
            if slot.outcome is None:
                continue
            lease = slot.outcome.lease
            if lease is not None:
                if self.pool.complete(lease):
                    self._finish(slot.record, slot.result)
            elif now >= slot.outcome.ready_s:
                self._finish(slot.record, slot.result)

    def _control_overload(self, now: float) -> None:
        """One pressure observation per scheduling round drives the
        hysteresis ladder; at the shedding rungs, waiting and
        not-yet-launched work of sheddable classes is dropped with an
        explicit SHED.  The autoscaler watches the same signals on its
        own cadence."""
        if self._ratio_window is None:
            return
        ratio_p99 = (
            percentile(list(self._ratio_window), 99)
            if self._ratio_window
            else 0.0
        )
        queued = self._queued_total()
        queue_frac = (
            queued / self.max_queue
            if self.max_queue > 0
            else (1.0 if queued else 0.0)
        )
        if self.controller is not None:
            policy = self.overload
            level = self.controller.observe(pressure(queue_frac, ratio_p99))
            shed_rank = policy.shed_rank(level)
            if shed_rank is not None:
                for name in PRIORITY_CLASSES:
                    if CLASS_RANK[name] >= shed_rank:
                        q = self._queues[name]
                        while q:
                            self._terminate(q.popleft(), SHED)
                for slot in list(self._active.values()):
                    if (
                        CLASS_RANK[slot.record.request.priority]
                        >= shed_rank
                        and slot.outcome is None
                        and slot.result is None
                    ):
                        self._cancel(slot.record, SHED)
                self._drain(now)
        if self.autoscaler is not None:
            self.autoscaler.step(now, ratio_p99, queue_frac)

    def _wait_for_direct(self) -> None:
        """Only direct-path work in flight: wait for the earliest
        ready time (or next arrival if sooner)."""
        targets = [
            slot.outcome.ready_s
            for slot in self._active.values()
            if slot.outcome is not None
        ]
        if self._active and self._arrivals:
            targets.append(self._arrivals[0][0])
        if targets:
            self.clock.advance_to(min(targets))
        elif self._active:  # pragma: no cover - defensive
            self.clock.advance(TICK_OVERHEAD_S)

    def _merged_tick(self) -> None:
        """One merged tick over every round-policy tenant: their
        selected rounds' playouts in one launch per game (one fused
        launch under fusion), then each tenant's backprop and next
        selection, in admission order."""
        tenants = self._tenants
        answers_by_game, spans = self._launch_tick(
            (rid, rnd.requests) for rid, rnd in tenants.items()
        )

        # CPU phase: every tenant backs its answers up and selects its
        # next round, in admission order where an iteration hook can
        # tell.
        active = self._active
        rounds = [tenants[rid] for rid in spans]
        before = [rnd.engine.clock.now for rnd in rounds]
        advance_rounds(
            rounds,
            [
                answers_by_game[game_name][lo:hi]
                for game_name, lo, hi in spans.values()
            ],
        )
        # Tenants' tree work runs on private cores, so the tick charges
        # the slowest one.
        cpu_s = 0.0
        for rid, rnd, start in zip(spans, rounds, before):
            slot = active[rid]
            if not rnd.requests:
                del tenants[rid]
                slot.result = rnd.finish()
            delta = rnd.engine.clock.now - start
            cpu_s = max(cpu_s, slot.pending_cpu_s + delta)
            slot.pending_cpu_s = 0.0
        self._end_tick(cpu_s)

    def _launch_tick(self, demand):
        """The kernel phase of a tick over ``demand``, ``(request id,
        playout requests)`` pairs in admission order: the merged
        launches, one lane per request, waited for.  Returns the
        answers per game and each request's ``(game, lo, hi)`` span of
        them; lanes a lost launch dropped degrade their requests."""
        active = self._active
        self.ticks += 1
        if self.injector is not None and self.injector.crash_due(
            "tick", self.ticks
        ):
            raise ServiceCrash(
                f"planned crash at service tick {self.ticks}"
            )
        per_game_states: dict[str, list] = {}
        spans: dict[str, tuple[str, int, int]] = {}
        for rid, reqs in demand:
            record = active[rid].record
            states = per_game_states.setdefault(record.request.game, [])
            lo = len(states)
            states.extend(reqs)
            spans[rid] = (record.request.game, lo, len(states))
            record.ticks += 1
            record.lanes += len(reqs)

        # Merged launches, one lane per leaf (one fused padded launch
        # for the whole tick under fusion); the tick waits for every
        # launch it issued.
        answers_by_game, tick_launches = self.batcher.execute_demand(
            per_game_states, spans
        )
        for launch in tick_launches:
            if launch.lease is not None:
                self.pool.synchronize(launch.lease)
            elif launch.ready_s > self.clock.now:
                # Lost chain: the host still waited out the retry
                # storm before giving up on this launch's lanes.
                self.clock.advance_to(launch.ready_s)

        # Attribute lost lanes to the requests whose leaf spans
        # overlapped the dropped launch chunks; those requests
        # complete with a reduced effective budget.
        lost_spans = [
            span
            for launch in tick_launches
            if not launch.delivered
            for span in launch.segments
        ]
        if lost_spans:
            for rid, (game_name, lo, hi) in spans.items():
                overlap = sum(
                    min(hi, shi) - max(lo, slo)
                    for sgame, slo, shi in lost_spans
                    if sgame == game_name
                    and min(hi, shi) > max(lo, slo)
                )
                if overlap:
                    record = active[rid].record
                    record.lost_lanes += overlap
                    record.degraded = True
        return answers_by_game, spans

    def _end_tick(self, cpu_s: float) -> None:
        """Charge the tick's CPU phase; completions land at the
        post-tick timestamp."""
        self.clock.advance(cpu_s + TICK_OVERHEAD_S)
        for slot in list(self._active.values()):
            if slot.outcome is None and slot.result is not None:
                self._finish(slot.record, slot.result)

    # -- crash recovery ----------------------------------------------------

    @classmethod
    def recover(
        cls,
        journal_path: "str | Path",
        rid_filter=None,
        **service_kwargs,
    ) -> "SearchService":
        """Rebuild a service from a crashed run's write-ahead journal.

        Pass the same construction kwargs as the original service (the
        journal stores requests and engine checkpoints, not service
        configuration).  Journalled completions are adopted verbatim
        and never re-run (exactly-once); incomplete requests are
        resubmitted, resuming from their latest checkpoint when one
        was journalled.  The plan's scheduled crash is stripped so the
        recovered run cannot crash-loop on the same point.

        ``rid_filter`` -- an optional predicate over request ids --
        scopes recovery to *this node's* requests: in a sharded
        cluster a journal directory can end up holding another shard's
        (prefix-tagged) records after a misrouted append or an
        operator concatenating files.  Foreign requests (and their
        checkpoints/completions) are skipped wholesale and counted in
        :attr:`foreign_records`; they are never adopted, resumed, or
        re-journalled, so the shard that owns them recovers them
        exactly once from its own journal.

        Corruption never crashes recovery and corrupted state is never
        adopted: journal records the reader skipped are counted in
        :attr:`journal_corrupt_records`, and a journalled checkpoint
        whose CRC envelope fails to verify is refused -- its request
        restarts from scratch and :attr:`corrupt_checkpoints` records
        the refusal.
        """
        state = read_journal(journal_path)
        faults = FaultPlan.coerce(service_kwargs.pop("faults", None))
        if faults is not None:
            faults = faults.without_crash()
        service = cls(
            faults=faults,
            journal=JournalWriter(journal_path, append=True),
            **service_kwargs,
        )
        service._journal_known = set(state.requests)
        service.journal_corrupt_records = state.corrupt_records
        for rid, request in state.requests.items():
            if rid_filter is not None and not rid_filter(rid):
                service.foreign_records += 1
                continue
            completion = state.completions.get(rid)
            if completion is not None:
                service._records.append(
                    RequestRecord(
                        request=request,
                        status=completion.status,
                        result=completion.result,
                        finish_s=completion.finish_s,
                    )
                )
                service._record_ids.add(rid)
                service.recovered_requests += 1
                continue
            service.submit(request)
            checkpoint = state.checkpoints.get(rid)
            if checkpoint is not None:
                try:
                    snapshot = checkpoint.snapshot()
                except CheckpointError:
                    # The journalled snapshot rotted on disk: refuse
                    # it (never adopt poisoned state) and restart the
                    # request from scratch, with the damage counted.
                    service.corrupt_checkpoints += 1
                    service.restarted_requests += 1
                else:
                    service._resume_snapshots[rid] = snapshot
                    service.resumed_requests += 1
                    service.recovered_iterations += (
                        checkpoint.iterations
                    )
            else:
                service.restarted_requests += 1
        return service

    # -- reporting ---------------------------------------------------------

    @property
    def records(self) -> list[RequestRecord]:
        return list(self._records)

    def report(self) -> ServiceReport:
        """Aggregate metrics for the finished run."""
        if not self._ran:
            raise ServiceError("run() the service before reporting")
        first_arrival = min(
            (r.request.arrival_s for r in self._records), default=0.0
        )
        elapsed = self.clock.now - first_arrival
        # Integrity counters: merged-launch screening lives on the
        # service's own state; engine-side defenses surface in each
        # result's ``integrity.*`` extras.
        detected = escaped = dropped = quarantined = 0
        if self.integrity_state is not None:
            detected += self.integrity_state.detected
            escaped += self.integrity_state.escaped
            dropped += self.integrity_state.dropped_batches
        for record in self._records:
            if record.result is None:
                continue
            extras = record.result.extras
            detected += extras.get("integrity.detected", 0)
            escaped += extras.get("integrity.escaped", 0)
            dropped += extras.get("integrity.dropped_batches", 0)
            quarantined += len(extras.get("integrity.quarantined", ()))
        counters = dict(
            kernel_launches=self.batcher.launch_count,
            mean_lanes_per_launch=self.batcher.mean_lanes_per_launch,
            fused_launches=self.batcher.fused_launches,
            fusion_pad_lanes=self.batcher.pad_lanes,
            mean_tenants_per_launch=(
                self.batcher.mean_tenants_per_launch
            ),
            device_utilization=self.pool.utilization(self.clock.now),
            retries=self.launcher.retries,
            lost_launches=self.launcher.lost_launches,
            retry_overhead_s=self.launcher.wasted_wait_s,
            rejected_results=self.launcher.rejected_results,
            recovered=self.recovered_requests,
            resumed=self.resumed_requests,
            restarted=self.restarted_requests,
            recovered_iterations=self.recovered_iterations,
            corrupt_detected=detected,
            corrupt_escaped=escaped,
            dropped_batches=dropped,
            quarantined_trees=quarantined,
            journal_corrupt=self.journal_corrupt_records,
            checkpoint_corrupt=self.corrupt_checkpoints,
        )
        # Optional components report only when they exist; the
        # report's own defaults cover the rest.
        if self.injector is not None:
            counters["faults_injected"] = self.injector.injected()
        if self.controller is not None:
            counters["peak_overload_level"] = self.controller.peak_level
        if self.autoscaler is not None:
            counters.update(
                scale_ups=self.autoscaler.scale_ups,
                scale_downs=self.autoscaler.scale_downs,
                peak_devices=self.autoscaler.peak_devices,
            )
        if self.clients is not None:
            counters.update(
                client_suppressed_breaker=self.clients.suppressed_breaker,
                client_suppressed_throttle=(
                    self.clients.suppressed_throttle
                ),
                retry_exhausted=self.clients.exhausted_attempts,
                retry_give_ups=self.clients.gave_up,
                breaker_opens=self.clients.breaker_opens,
                breaker_closes=self.clients.breaker_closes,
            )
        if self.retry_budget is not None:
            counters.update(
                budget_granted=self.retry_budget.granted,
                budget_rejected=self.retry_budget.rejected,
            )
        return summarize(self._records, elapsed, **counters)


@dataclass(frozen=True)
class Served:
    """What :func:`serve` hands back.  Unpacks as ``records, report``,
    the pair most callers want; the services behind them go by name."""

    records: "list[RequestRecord]"
    report: ServiceReport
    #: The incarnation that finished the run (after a crash, the
    #: recovered one: ``report.elapsed_s`` is then the time to repair).
    service: SearchService
    #: The incarnation a planned crash killed, if one fired.
    crashed: "SearchService | None" = None

    def __iter__(self):
        return iter((self.records, self.report))


def serve(
    requests: list[SearchRequest],
    journal: "str | Path | None" = None,
    recover: bool = True,
    rid_filter=None,
    **service_kwargs,
) -> Served:
    """Build a service, submit ``requests``, run, report.

    With a ``journal``, one planned :class:`ServiceCrash` is absorbed
    by recovering from it: journalled completions are adopted verbatim
    -- exactly-once -- and incomplete requests resume from their
    checkpoints (:meth:`SearchService.recover`, which takes
    ``rid_filter`` and strips the plan's crash so the run cannot
    crash-loop).  Without one -- or with ``recover=False``, which
    journals but leaves recovery to the caller (the CLI's crash ->
    ``--resume`` walkthrough) -- the crash propagates.
    """
    service = SearchService(journal=journal, **service_kwargs)
    service.submit_all(requests)
    try:
        return Served(service.run(), service.report(), service)
    except ServiceCrash:
        if journal is None or not recover:
            raise
    recovered = SearchService.recover(
        journal, rid_filter=rid_filter, **service_kwargs
    )
    return Served(
        recovered.run(), recovered.report(), recovered, crashed=service
    )
