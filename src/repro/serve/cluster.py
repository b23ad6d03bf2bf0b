"""Sharded serving cluster: consistent-hash routing, replica voting,
crash-recovering shards, and a Zobrist-keyed result cache.

One :class:`~repro.serve.service.SearchService` is one node: one
virtual-GPU pool, one scheduler, one journal.  This module scales the
same serving model *out*: a :class:`ClusterRouter` places every
request onto one of ``n_shards`` simulated nodes by consistent
hashing on the request's **canonical position key** (the game's
Zobrist hash -- :meth:`repro.games.base.Game.zobrist_key` -- so
transpositions of the same position route to the same shard), fans
each placed request out to ``replicas`` distinct shards, and
aggregates the replicas' root statistics through the Byzantine
-tolerant trimmed vote (:func:`repro.core.trimmed_vote_stat_dicts`) so
a corrupted shard's answer lands in the trimmed tail instead of in
the response.

Everything stays deterministic on virtual time.  Each shard is an
independent node with its own :class:`~repro.util.clock.Clock`; all
shards replay the same arrival timeline (exactly what physically
distinct machines do), so the cluster's elapsed time is the *maximum*
over shards, not the sum -- which is what makes throughput scale
nearly linearly on independent traffic.  Sharing nothing within a
wave, a wave's shards also play on every CPU of the affinity mask:
one group in the router's process, the others in forked workers, all
booked in shard order so placement never shows (``_play_wave``;
docs/cluster.md "Where shards run").

Contract (pinned by ``tests/serve/test_cluster.py``): a cluster of
**one shard, one replica, cache off** is *bit-identical* to a bare
``SearchService`` -- same records, same results, same timings -- for
every engine kind on both tree backends.  The cluster is a routing
layer, never a semantics layer.

Cache coherence (see docs/cluster.md): the optional
:class:`~repro.serve.cache.ResultCache` is consulted at arrival, in
submission order.  The first request with a given key in a run is the
**leader** and is dispatched; concurrent duplicates become
**followers** and are served from the leader's completed result at
``max(arrival, leader finish) + hit cost`` (in-flight coalescing).
Followers whose leader failed (missed, rejected, or screened out by
the cache's integrity check) are re-dispatched as leaders in a
subsequent wave, so every request still terminates.

Crash recovery: with a ``journal_dir``, every shard journals its own
requests (rid-scoped via ``SearchService.recover(rid_filter=...)``).
A shard whose fault plan kills it mid-run is recovered from its own
journal exactly once -- journalled completions are adopted, never
re-run -- and the recovered incarnation's elapsed time is reported as
that shard's MTTR.
"""

from __future__ import annotations

import bisect
import gc
import inspect
import multiprocessing
import os
import pickle
import traceback
import warnings
from dataclasses import dataclass, field, replace
from pathlib import Path

from repro.core import (
    MAX_VISITS,
    register_extra_keys,
    select_move,
    trimmed_vote_stat_dicts,
)
from repro.core.results import SearchResult
from repro.faults import FaultPlan
from repro.games import make_game
from repro.games.base import Game
from repro.gpu.trace import TraceEvent, Tracer
from repro.serve.cache import (
    CACHE_HIT_COST_S,
    CacheKey,
    ResultCache,
    cache_key_for,
)
from repro.serve.metrics import (
    ClassStats,
    ServiceReport,
    class_rows,
    class_summary,
    latency_summary,
    outcome_rows,
    render_metric_rows,
)
from repro.serve.request import (
    COMPLETED,
    MISSED,
    REJECTED,
    SHED,
    RequestRecord,
    SearchRequest,
)
from repro.serve.service import SearchService, ServiceError, serve
from repro.util.seeding import derive_seed
from repro.util.tables import format_series

register_extra_keys(
    "cluster",
    {
        # Replica results that reached the vote.
        "cluster.replicas": int,
        # Replicas whose own move differed from the voted move.
        "cluster.dissent": int,
    },
)


#: Virtual nodes per shard on the hash ring (ring smoothness).
VNODES = 64
#: Trim fraction of the replica vote (0.34 -> the median at R=3).
VOTE_TRIM = 0.34


class HashRing:
    """Consistent-hash ring over ``n_shards`` with virtual nodes.

    Each shard owns ``VNODES`` deterministic points
    (``derive_seed(seed, "ring", shard, vnode)``) on the 64-bit ring;
    a key is placed on the first point at or after it.  Replicas are
    the next *distinct* shards walking clockwise -- the classic
    successor-list placement, so adding a shard only moves the keys
    that land in its new arcs.

    Keys are used verbatim, so they must already be uniform 64-bit
    values (the router derives them with
    ``derive_seed(zobrist_key, game)``); low-entropy raw keys would
    cluster on one arc.
    """

    def __init__(self, n_shards: int, seed: int = 0) -> None:
        if n_shards <= 0:
            raise ValueError(
                f"n_shards must be positive: {n_shards}"
            )
        self.n_shards = n_shards
        points = sorted(
            (derive_seed(seed, "ring", shard, v), shard)
            for shard in range(n_shards)
            for v in range(VNODES)
        )
        self._hashes = [h for h, _ in points]
        self._owners = [s for _, s in points]

    def shards_for(self, key: int, count: int = 1) -> list[int]:
        """The ``count`` shards owning ``key``: the primary, then its
        clockwise distinct successors."""
        count = min(count, self.n_shards)
        i = bisect.bisect_right(self._hashes, key & (2**64 - 1))
        n = len(self._owners)
        owners: list[int] = []
        while len(owners) < count:
            shard = self._owners[i % n]
            if shard not in owners:
                owners.append(shard)
            i += 1
        return owners

    def shard_for(self, key: int) -> int:
        return self.shards_for(key, 1)[0]


@dataclass(frozen=True)
class ShardWave:
    """What one shard hands back for one wave: everything
    :meth:`ShardHandle.absorb` needs, and nothing that cannot cross a
    pipe from a forked worker."""

    records: "list[RequestRecord]"
    report: ServiceReport
    #: Virtual time from the wave's first arrival to a planned crash
    #: (``None`` when none fired).
    crash_s: "float | None" = None
    foreign_records: int = 0
    #: Spans the shard's services recorded, when the shard has a
    #: ``tracer`` (its services record into a fresh one per wave).
    events: "list[TraceEvent]" = field(default_factory=list)


class ShardHandle:
    """One simulated cluster node: a service factory + its journal.

    The handle owns the shard's construction kwargs and (optionally)
    its write-ahead journal path.  A wave is two steps:
    :meth:`play` serves the wave on a fresh :class:`SearchService`
    incarnation -- surviving a planned
    :class:`~repro.serve.service.ServiceCrash` by recovering from its
    own journal (:func:`~repro.serve.service.serve`), scoped to its
    own request ids via ``rid_filter`` so a journal polluted with
    another shard's records recovers cleanly -- and returns a
    :class:`ShardWave` without touching the handle, so it may run in a
    forked worker; :meth:`absorb`, always in the router's process,
    books that wave onto the handle.

    ``elapsed_s`` accumulates the shard's wall time on its own virtual
    clock across incarnations (waves run back to back on one node);
    ``mttr_s`` records, per recovery, the recovered incarnation's
    elapsed time -- the time from restart until the backlog drained.
    """

    def __init__(
        self,
        shard_id: int,
        service_kwargs: dict,
        journal_path: "str | Path | None" = None,
    ) -> None:
        self.shard_id = shard_id
        self.service_kwargs = dict(service_kwargs)
        self.journal_path = (
            Path(journal_path) if journal_path is not None else None
        )
        self.crashes = 0
        self.recoveries = 0
        self.mttr_s: list[float] = []
        self.foreign_records = 0
        self.elapsed_s = 0.0
        self.reports: list[ServiceReport] = []
        self._waves = 0

    def play(self, requests: "list[SearchRequest]") -> ShardWave:
        """Serve the handle's next wave of ``requests``; the handle
        itself is left as it was."""
        kwargs = dict(self.service_kwargs)
        journal = self.journal_path if self._waves == 0 else None
        if self._waves > 0:
            # The scheduled crash belongs to the first incarnation;
            # later waves on the same node must not re-fire it (and
            # have no journal to recover from).
            plan = FaultPlan.coerce(kwargs.get("faults"))
            if plan is not None:
                kwargs["faults"] = plan.without_crash()
        tracer = None
        if kwargs.get("tracer") is not None:
            # Device utilisation is read off the tracer, so a shard
            # must not see spans of the shards that ran before it.
            tracer = kwargs["tracer"] = Tracer()
        served = serve(
            requests,
            journal,
            rid_filter={r.request_id for r in requests}.__contains__,
            **kwargs,
        )
        crash_s = None
        if served.crashed is not None:
            first_arrival = min(r.arrival_s for r in requests)
            crash_s = max(0.0, served.crashed.clock.now - first_arrival)
        return ShardWave(
            records=served.records,
            report=served.report,
            crash_s=crash_s,
            foreign_records=(
                served.service.foreign_records if crash_s is not None else 0
            ),
            events=tracer.events if tracer is not None else [],
        )

    def absorb(self, wave: ShardWave) -> "dict[str, RequestRecord]":
        """Book a played wave onto the handle; its records by id."""
        self._waves += 1
        if wave.crash_s is not None:
            self.crashes += 1
            self.recoveries += 1
            self.elapsed_s += wave.crash_s
            self.foreign_records += wave.foreign_records
            self.mttr_s.append(wave.report.elapsed_s)
        self.reports.append(wave.report)
        self.elapsed_s += max(0.0, wave.report.elapsed_s)
        tracer = self.service_kwargs.get("tracer")
        for event in wave.events:
            tracer.record(
                event.name,
                event.track,
                event.start_s,
                event.end_s,
                **event.args,
            )
        return {r.request.request_id: r for r in wave.records}


def _cpus() -> int:
    """Worker processes a wave may use: one per CPU of the affinity
    mask, or one (the router's own) where the platform has no mask
    or no ``fork``."""
    if not hasattr(os, "sched_getaffinity") or (
        "fork" not in multiprocessing.get_all_start_methods()
    ):
        return 1
    return len(os.sched_getaffinity(0))


def _groups(
    by_shard: "dict[int, list[SearchRequest]]", n: int
) -> "list[list[int]]":
    """``by_shard``'s ids in ``n`` groups balanced by request count:
    largest shard first, each onto the lightest group so far; every
    group in shard order."""
    groups: "list[list[int]]" = [[] for _ in range(n)]
    loads = [0] * n
    for shard_id in sorted(by_shard, key=lambda s: (-len(by_shard[s]), s)):
        lightest = loads.index(min(loads))
        groups[lightest].append(shard_id)
        loads[lightest] += len(by_shard[shard_id])
    return [sorted(group) for group in groups]


def _play_group(shards, by_shard, group) -> "dict[int, object]":
    """Play a group's shards in shard order: each shard id maps to its
    :class:`ShardWave`, or to the exception it raised -- the group
    stops there, as the serial loop would."""
    played: "dict[int, object]" = {}
    for shard_id in group:
        try:
            played[shard_id] = shards[shard_id].play(by_shard[shard_id])
        except Exception as exc:  # handed to the router, raised there
            played[shard_id] = exc
            break
    return played


def _worker(sender, shards, by_shard, group) -> None:
    """A forked worker's entry: play ``group`` and send the outcomes
    back pickled, a raised exception with the worker's traceback as a
    note.  The process then leaves through multiprocessing's
    ``os._exit``, so no buffer it inherited is flushed twice."""
    played = _play_group(shards, by_shard, group)
    for outcome in played.values():
        if isinstance(outcome, Exception) and hasattr(outcome, "add_note"):
            outcome.add_note(
                "raised in a cluster worker:\n"
                + "".join(traceback.format_exception(outcome))
            )
    sender.send_bytes(pickle.dumps(played, pickle.HIGHEST_PROTOCOL))
    sender.close()


def _play_wave(shards, by_shard) -> "dict[int, object]":
    """Play a wave's shards: one group per worker process, the first
    in this process; outcomes by shard id (see :func:`_play_group`).

    Every worker is joined before this returns or raises."""
    groups = _groups(by_shard, min(_cpus(), len(by_shard)))
    if len(groups) == 1:
        return _play_group(shards, by_shard, groups[0])
    context = multiprocessing.get_context("fork")
    workers = []
    local = groups[:1]
    try:
        # Frozen objects are skipped by a child's collector, which
        # would otherwise write to (and so copy) every inherited page.
        gc.freeze()
        try:
            for group in groups[1:]:
                receiver, sender = context.Pipe(duplex=False)
                worker = context.Process(
                    target=_worker,
                    args=(sender, shards, by_shard, group),
                    daemon=True,
                )
                try:
                    with warnings.catch_warnings():
                        # Python 3.12 warns on fork with threads
                        # running; the only ones are the block pool's,
                        # which playout.c's pthread_atfork handlers
                        # leave out of the child.
                        warnings.filterwarnings(
                            "ignore",
                            message=".*use of fork",
                            category=DeprecationWarning,
                        )
                        worker.start()
                except OSError:  # no process to be had: play it here
                    local.append(group)
                    receiver.close()
                else:
                    workers.append((worker, receiver, group))
                finally:
                    # Closed at once, so a later worker does not
                    # inherit it and a dead worker reads as EOF.
                    sender.close()
        finally:
            gc.unfreeze()
        played = {}
        for group in local:
            played.update(_play_group(shards, by_shard, group))
        for worker, receiver, group in workers:
            try:
                played.update(pickle.loads(receiver.recv_bytes()))
            except EOFError:
                worker.join()
                played[group[0]] = ServiceError(
                    f"cluster worker for shards {group} exited with "
                    f"code {worker.exitcode}"
                )
        return played
    except BaseException:
        for worker, _, _ in workers:
            worker.terminate()
        raise
    finally:
        for worker, receiver, _ in workers:
            receiver.close()
            worker.join()


#: Request counts a per-shard report sums over every wave the shard
#: ran, the way ``ShardHandle.elapsed_s`` sums its elapsed time.
_SHARD_COUNTS = (
    "offered",
    "completed",
    "rejected",
    "missed",
    "shed",
    "recovered",
)


def _shard_report(reports: "list[ServiceReport]") -> ServiceReport:
    """One shard's report: its last incarnation's, with the request
    counts summed over all of them (a shard runs a second wave when
    followers re-dispatch after their cache leader failed)."""
    if not reports:
        return ServiceReport(
            offered=0,
            completed=0,
            rejected=0,
            missed=0,
            elapsed_s=0.0,
            p50_latency_s=0.0,
            p95_latency_s=0.0,
            mean_latency_s=0.0,
            p95_queue_wait_s=0.0,
        )
    return replace(
        reports[-1],
        **{
            name: sum(getattr(r, name) for r in reports)
            for name in _SHARD_COUNTS
        },
    )


@dataclass
class ClusterReport:
    """Aggregated outcome of one cluster run."""

    n_shards: int
    replicas: int
    offered: int
    completed: int
    rejected: int
    missed: int
    #: Max over shards of per-shard virtual elapsed time (shards are
    #: independent nodes replaying one arrival timeline).
    elapsed_s: float
    p50_latency_s: float
    p95_latency_s: float
    mean_latency_s: float
    #: Dispatch waves the run needed (1 unless followers had to be
    #: re-dispatched after a failed cache leader).
    waves: int = 1
    #: Requests the overload controller shed (explicit rejections).
    shed: int = 0
    #: Per-priority-class outcome stats (docs/overload.md).
    per_class: "dict[str, ClassStats]" = field(default_factory=dict)
    #: Result-cache accounting (zeros when the cache is off).
    cache_hits: int = 0
    cache_misses: int = 0
    cache_evictions: int = 0
    cache_screened_out: int = 0
    cache_hit_rate: float = 0.0
    #: Followers that waited on an in-flight leader (arrival before
    #: the leader's search finished) rather than on a stored entry.
    coalesced: int = 0
    #: Replica results whose own move differed from the trimmed vote.
    replica_dissent: int = 0
    #: Crash-recovery accounting across shards.
    shard_crashes: int = 0
    shard_recoveries: int = 0
    mean_mttr_s: float = 0.0
    foreign_records: int = 0
    #: Per-shard reports, indexed by shard id (see
    #: :func:`_shard_report`).
    shard_reports: "list[ServiceReport]" = field(
        default_factory=list
    )
    #: Per-shard elapsed seconds (across incarnations).
    shard_elapsed_s: "list[float]" = field(default_factory=list)

    @property
    def requests_per_s(self) -> float:
        """Completed searches per cluster virtual second."""
        if self.elapsed_s <= 0:
            return 0.0
        return self.completed / self.elapsed_s

    @property
    def completion_rate(self) -> float:
        if self.offered <= 0:
            return 0.0
        return self.completed / self.offered

    def render(self, title: str = "cluster run") -> str:
        rows = outcome_rows(
            self.offered,
            self.completed,
            self.rejected,
            self.missed,
            self.elapsed_s,
            self.requests_per_s,
            self.p50_latency_s,
            self.p95_latency_s,
            self.mean_latency_s,
            shed=self.shed,
        )
        rows["shards"] = str(self.n_shards)
        rows["replicas"] = str(self.replicas)
        rows["dispatch waves"] = str(self.waves)
        if self.shed or set(self.per_class) - {"standard"}:
            rows.update(class_rows(self.per_class))
        lookups = self.cache_hits + self.cache_misses
        if lookups:
            rows["cache hits"] = str(self.cache_hits)
            rows["cache misses"] = str(self.cache_misses)
            rows["cache hit rate"] = (
                f"{self.cache_hit_rate * 100:.0f}%"
            )
            rows["cache coalesced"] = str(self.coalesced)
            rows["cache evictions"] = str(self.cache_evictions)
            rows["cache screened out"] = str(
                self.cache_screened_out
            )
        if self.replicas > 1:
            rows["replica dissent"] = str(self.replica_dissent)
        if self.shard_crashes or self.foreign_records:
            rows["shard crashes"] = str(self.shard_crashes)
            rows["shard recoveries"] = str(self.shard_recoveries)
            rows["mean MTTR (s)"] = f"{self.mean_mttr_s:.4f}"
            rows["foreign journal records"] = str(
                self.foreign_records
            )
        table = render_metric_rows(title, rows)
        if not self.shard_reports:
            return table
        metrics = [
            "offered",
            "completed",
            "missed",
            "elapsed (s)",
            "requests/s",
            "recovered",
        ]
        series = {}
        for i, rep in enumerate(self.shard_reports):
            elapsed = self.shard_elapsed_s[i]
            per_s = rep.completed / elapsed if elapsed > 0 else 0.0
            series[f"shard {i}"] = [
                str(rep.offered),
                str(rep.completed),
                str(rep.missed),
                f"{elapsed:.4f}",
                f"{per_s:.1f}",
                str(rep.recovered),
            ]
        shard_table = format_series(
            "metric", metrics, series, title="per-shard"
        )
        return f"{table}\n\n{shard_table}"


class ClusterRouter:
    """Consistent-hash request router over ``n_shards`` simulated
    :class:`SearchService` nodes, with optional replication and a
    cluster-wide result cache.

    ``**service_kwargs`` are passed to every shard's service
    (``n_devices``, ``backend``, ``faults``, ...); ``shard_overrides``
    maps a shard id to kwargs overriding them for that shard only
    (e.g. a Byzantine fault plan on shard 2).  With ``journal_dir``
    each shard journals to ``shard-<id>.journal`` inside it and
    recovers its own planned crashes.
    """

    #: Virtual cost of serving a request from the router's cache.
    cache_hit_cost_s = CACHE_HIT_COST_S

    def __init__(
        self,
        n_shards: int = 4,
        replicas: int = 1,
        seed: int = 0,
        cache: "ResultCache | dict | bool | None" = None,
        journal_dir: "str | Path | None" = None,
        shard_overrides: "dict[int, dict] | None" = None,
        **service_kwargs,
    ) -> None:
        if replicas <= 0:
            raise ValueError(
                f"replicas must be positive: {replicas}"
            )
        # A kwarg no shard service takes fails here, not at the first
        # wave.
        inspect.signature(SearchService).bind_partial(**service_kwargs)
        self.n_shards = n_shards
        self.replicas = replicas
        self.seed = seed
        self.cache = ResultCache.coerce(cache)
        self.ring = HashRing(n_shards, seed=derive_seed(seed, "ring"))
        overrides = shard_overrides or {}
        journal_dir = (
            Path(journal_dir) if journal_dir is not None else None
        )
        if journal_dir is not None:
            journal_dir.mkdir(parents=True, exist_ok=True)
        self.shards = [
            ShardHandle(
                i,
                {"seed": seed, **service_kwargs, **overrides.get(i, {})},
                journal_path=(
                    journal_dir / f"shard-{i}.journal"
                    if journal_dir is not None
                    else None
                ),
            )
            for i in range(n_shards)
        ]
        self.waves = 0
        self.coalesced = 0
        self.replica_dissent = 0
        self._requests: "list[SearchRequest]" = []
        self._request_ids: set[str] = set()
        self._final: "dict[str, RequestRecord]" = {}
        self._games: "dict[str, Game]" = {}
        self._cache_keys: "dict[tuple, CacheKey]" = {}
        self._route_keys: "dict[tuple, int]" = {}
        self._ran = False

    # -- submission --------------------------------------------------------

    def submit(self, request: SearchRequest) -> None:
        """Register a request for the next :meth:`run`."""
        if self._ran:
            raise ServiceError("cluster already ran; build a new one")
        if request.request_id in self._request_ids:
            raise ServiceError(
                f"duplicate request id {request.request_id!r}"
            )
        self._requests.append(request)
        self._request_ids.add(request.request_id)

    def submit_all(self, requests: "list[SearchRequest]") -> None:
        for request in requests:
            self.submit(request)

    # -- helpers -----------------------------------------------------------

    def _game(self, name: str) -> Game:
        game = self._games.get(name)
        if game is None:
            game = make_game(name)
            self._games[name] = game
        return game

    def _state_of(self, request: SearchRequest):
        game = self._game(request.game)
        state = request.state
        return game, (
            state if state is not None else game.initial_state()
        )

    def _cache_key(self, request: SearchRequest) -> CacheKey:
        """The request's cache key, made once per distinct search."""
        memo = (
            request.game,
            request.state,
            request.engine,
            request.budget_s,
        )
        try:
            return self._cache_keys[memo]
        except KeyError:
            pass
        except TypeError:  # an unhashable (dict) engine spec
            memo = None
        game, state = self._state_of(request)
        key = cache_key_for(game, state, request.engine, request.budget_s)
        if memo is not None:
            self._cache_keys[memo] = key
        return key

    def _route_key(self, request: SearchRequest) -> int:
        """Ring position of a request: its canonical position key
        (Zobrist hash of the searched position), salted by game so
        distinct games spread independently; made once per
        position."""
        memo = (request.game, request.state)
        key = self._route_keys.get(memo)
        if key is None:
            game, state = self._state_of(request)
            key = self._route_keys[memo] = derive_seed(
                game.zobrist_key(state), request.game
            )
        return key

    def _hit_record(
        self, request: SearchRequest, entry, t_eff: float
    ) -> RequestRecord:
        """A record served from the cache at virtual time ``t_eff``."""
        finish = t_eff + self.cache_hit_cost_s
        deadline = request.absolute_deadline_s
        if deadline is not None and finish > deadline:
            # The leader's answer came too late for this follower.
            return RequestRecord(
                request=request,
                status=MISSED,
                finish_s=deadline,
                extras={"cache_hit": True},
            )
        return RequestRecord(
            request=request,
            status=COMPLETED,
            result=entry.result,
            start_s=t_eff,
            finish_s=finish,
            extras={"cache_hit": True},
        )

    def _aggregate(
        self,
        request: SearchRequest,
        records: "list[RequestRecord]",
    ) -> RequestRecord:
        """Fold one request's replica records into its cluster record.

        With one replica the shard's record *is* the cluster record
        (the bit-identity contract).  Otherwise completed replicas
        vote via the trimmed mean over per-replica visit shares and
        the move is re-selected from the voted statistics; the
        request completes when its slowest replica does.
        """
        if len(records) == 1:
            return records[0]
        primary = records[0]
        completed = [
            r
            for r in records
            if r.status == COMPLETED and r.result is not None
        ]
        if not completed:
            return primary
        voted = trimmed_vote_stat_dicts(
            [dict(r.result.stats) for r in completed],
            trim=VOTE_TRIM,
        )
        if not voted:
            return primary
        move = select_move(voted, MAX_VISITS)
        dissent = sum(
            1 for r in completed if r.result.move != move
        )
        self.replica_dissent += dissent
        results = [r.result for r in completed]
        result = SearchResult(
            move=move,
            stats=voted,
            iterations=sum(r.iterations for r in results),
            simulations=sum(r.simulations for r in results),
            max_depth=max(r.max_depth for r in results),
            tree_nodes=sum(r.tree_nodes for r in results),
            elapsed_s=max(r.elapsed_s for r in results),
            trees=sum(r.trees for r in results),
            engine="cluster",
            extras={
                "cluster.replicas": len(completed),
                "cluster.dissent": dissent,
            },
        )
        starts = [
            r.start_s for r in completed if r.start_s is not None
        ]
        return RequestRecord(
            request=request,
            status=COMPLETED,
            result=result,
            start_s=min(starts) if starts else None,
            finish_s=max(r.finish_s for r in completed),
            ticks=sum(r.ticks for r in records),
            lanes=sum(r.lanes for r in records),
            degraded=any(r.degraded for r in records),
            lost_lanes=sum(r.lost_lanes for r in records),
        )

    # -- execution ---------------------------------------------------------

    def run(self) -> "list[RequestRecord]":
        """Serve every submitted request; records in submission order."""
        if self._ran:
            raise ServiceError("cluster already ran; build a new one")
        self._ran = True
        pending = list(self._requests)
        while pending:
            self.waves += 1
            if self.waves > len(self._requests) + 1:
                raise ServiceError(
                    "cluster dispatch failed to converge"
                )  # pragma: no cover - defensive
            pending = self._run_wave(pending)
        return [
            self._final[r.request_id] for r in self._requests
        ]

    def _run_wave(
        self, requests: "list[SearchRequest]"
    ) -> "list[SearchRequest]":
        """One dispatch wave; returns followers needing another."""
        # Pass A -- consult the cache (submission order): stored hits
        # are answered outright, duplicate keys coalesce behind the
        # first request (the leader), the rest dispatch.
        dispatch: "list[SearchRequest]" = []
        followers: "dict[str, list[SearchRequest]]" = {}
        keys: "dict[str, CacheKey]" = {}
        leader_of: "dict[CacheKey, str]" = {}
        for request in requests:
            if self.cache is None:
                dispatch.append(request)
                continue
            key = self._cache_key(request)
            leader = leader_of.get(key)
            if leader is not None:
                followers[leader].append(request)
                continue
            entry = self.cache.lookup(key, request.arrival_s)
            if entry is not None:
                self._final[request.request_id] = self._hit_record(
                    request, entry, request.arrival_s
                )
                continue
            leader_of[key] = request.request_id
            keys[request.request_id] = key
            followers[request.request_id] = []
            dispatch.append(request)

        # Pass B -- place on the ring, clone replicas, run shards.
        by_shard: "dict[int, list[SearchRequest]]" = {}
        replica_rids: "dict[str, list[str]]" = {}
        for request in dispatch:
            owners = self.ring.shards_for(
                self._route_key(request), self.replicas
            )
            rids = []
            for k, shard_id in enumerate(owners):
                clone = (
                    request
                    if k == 0
                    else replace(
                        request,
                        request_id=(
                            f"{request.request_id}::r{k}"
                        ),
                        seed=derive_seed(
                            request.seed, "replica", k
                        ),
                    )
                )
                by_shard.setdefault(shard_id, []).append(clone)
                rids.append(clone.request_id)
            replica_rids[request.request_id] = rids
        # Shards share nothing within a wave, so they play in worker
        # processes; their outcomes are booked in shard order, and the
        # lowest shard that raised raises here, as a serial loop would.
        shard_records: "dict[str, RequestRecord]" = {}
        played = _play_wave(self.shards, by_shard)
        for shard_id in sorted(played):
            outcome = played[shard_id]
            if isinstance(outcome, Exception):
                raise outcome
            shard_records.update(self.shards[shard_id].absorb(outcome))
        for request in dispatch:
            self._final[request.request_id] = self._aggregate(
                request,
                [
                    shard_records[rid]
                    for rid in replica_rids[request.request_id]
                ],
            )

        # Pass C -- publish leaders into the cache (at their finish
        # time, screened), then serve followers; followers whose
        # leader never produced a cacheable answer re-dispatch.
        next_wave: "list[SearchRequest]" = []
        if self.cache is None:
            return next_wave
        for request in dispatch:
            record = self._final[request.request_id]
            if record.status == COMPLETED and record.result is not None:
                _, state = self._state_of(request)
                self.cache.insert(
                    keys[request.request_id],
                    state,
                    record.result,
                    now_s=record.finish_s,
                )
        for request in dispatch:
            leader_record = self._final[request.request_id]
            key = keys[request.request_id]
            for follower in followers[request.request_id]:
                t_eff = follower.arrival_s
                if leader_record.finish_s is not None:
                    t_eff = max(t_eff, leader_record.finish_s)
                entry = self.cache.lookup(key, t_eff)
                if entry is None:
                    next_wave.append(follower)
                    continue
                if follower.arrival_s < entry.inserted_s:
                    self.coalesced += 1
                self._final[follower.request_id] = (
                    self._hit_record(follower, entry, t_eff)
                )
        return next_wave

    # -- reporting ---------------------------------------------------------

    @property
    def records(self) -> "list[RequestRecord]":
        return [
            self._final[r.request_id]
            for r in self._requests
            if r.request_id in self._final
        ]

    def report(self) -> ClusterReport:
        """Aggregate metrics for the finished cluster run."""
        if not self._ran:
            raise ServiceError("run() the cluster before reporting")
        records = self.records
        latencies = [
            r.latency_s for r in records if r.status == COMPLETED
        ]
        p50, p95, mean = latency_summary(latencies)
        elapsed = max(
            (s.elapsed_s for s in self.shards), default=0.0
        )
        mttrs = [m for s in self.shards for m in s.mttr_s]
        return ClusterReport(
            n_shards=self.n_shards,
            replicas=self.replicas,
            offered=len(records),
            completed=len(latencies),
            rejected=sum(
                1 for r in records if r.status == REJECTED
            ),
            missed=sum(1 for r in records if r.status == MISSED),
            shed=sum(1 for r in records if r.status == SHED),
            per_class=class_summary(records),
            elapsed_s=elapsed,
            p50_latency_s=p50,
            p95_latency_s=p95,
            mean_latency_s=mean,
            waves=self.waves,
            cache_hits=self.cache.hits if self.cache else 0,
            cache_misses=self.cache.misses if self.cache else 0,
            cache_evictions=(
                self.cache.evictions if self.cache else 0
            ),
            cache_screened_out=(
                self.cache.screened_out if self.cache else 0
            ),
            cache_hit_rate=(
                self.cache.hit_rate if self.cache else 0.0
            ),
            coalesced=self.coalesced,
            replica_dissent=self.replica_dissent,
            shard_crashes=sum(s.crashes for s in self.shards),
            shard_recoveries=sum(
                s.recoveries for s in self.shards
            ),
            mean_mttr_s=(
                sum(mttrs) / len(mttrs) if mttrs else 0.0
            ),
            foreign_records=sum(
                s.foreign_records for s in self.shards
            ),
            shard_reports=[
                _shard_report(s.reports) for s in self.shards
            ],
            shard_elapsed_s=[s.elapsed_s for s in self.shards],
        )
