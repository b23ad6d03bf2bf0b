"""Where a cluster wave's shards run: forked workers, one per CPU of
the affinity mask.  Placement must not show in anything observable --
records, report rows, per-shard reports, journal bytes, tracer spans
-- no process may outlive ``ClusterRouter.run()``, and a shard that
raises raises the same way at any worker count.  Also the router's
memoised cache and route keys."""

import multiprocessing
import os
import signal
from contextlib import contextmanager, nullcontext
from dataclasses import replace
from multiprocessing.context import ForkProcess

import pytest

from repro.compiled import block_workers
from repro.games import make_game
from repro.gpu.trace import Tracer
from repro.serve import (
    ClusterRouter,
    ServiceCrash,
    ServiceError,
    ShardHandle,
    WorkloadConfig,
    make_workload,
)
from repro.serve.cache import cache_key_for
from repro.serve.cluster import _cpus, _groups
from repro.util.seeding import derive_seed
from tests.serve.test_cluster import NO_DEFENSE, mixed_requests, request

needs_two_cpus = pytest.mark.skipif(
    _cpus() < 2, reason="needs two CPUs in the affinity mask"
)


@pytest.fixture(scope="module", autouse=True)
def block_pool_started():
    """Start the block kernel's helper threads first, so the workers
    fork a process that has them (what playout.c's pthread_atfork
    handlers are for)."""
    block_workers()


@contextmanager
def one_cpu():
    """This thread pinned to one CPU of its mask, then restored."""
    mask = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(mask)})
    try:
        yield
    finally:
        os.sched_setaffinity(0, mask)


@pytest.fixture
def forks(monkeypatch):
    """Worker processes started, counted in the router's process.  A
    wait on a worker that never ends fails the test after two
    minutes instead of hanging it."""
    started = []
    start = ForkProcess.start

    def counted(process):
        started.append(process)
        start(process)

    def overdue(signum, frame):
        raise TimeoutError("a cluster run waited two minutes")

    monkeypatch.setattr(ForkProcess, "start", counted)
    previous = signal.signal(signal.SIGALRM, overdue)
    signal.alarm(120)
    yield started
    signal.alarm(0)
    signal.signal(signal.SIGALRM, previous)


def skewed_requests(n=24, skew=0.0):
    traffic = make_workload(
        WorkloadConfig(
            n_requests=n,
            seed=7,
            budget_scale=0.05,
            deadline_s=None,
            position_skew=skew,
            position_pool=12,
        )
    )
    return [
        replace(r, arrival_s=i * 2e-4) for i, r in enumerate(traffic)
    ]


def skew0(tmp_path):
    return dict(n_shards=4, seed=5, cache=True), skewed_requests()


def zipf_with_a_second_wave(tmp_path):
    # The hottest search's leader misses its 1 us deadline, so its
    # followers re-dispatch in a second wave.
    requests = skewed_requests(skew=1.1)
    searches = [(r.game, r.state, r.engine) for r in requests]
    hot = searches.index(max(searches, key=searches.count))
    requests[hot] = replace(requests[hot], deadline_s=1e-6)
    return dict(n_shards=4, seed=5, cache=True), requests


def two_replicas(tmp_path):
    # Failure domains went with PR 32's cut; replicas are the ring's
    # clockwise distinct shards.
    return dict(n_shards=4, replicas=2, seed=2), mixed_requests(9)


def journalled_crash(tmp_path):
    return (
        dict(
            n_shards=3,
            seed=3,
            journal_dir=tmp_path / "journals",
            shard_overrides={1: {"faults": "crash=tick:3"}},
        ),
        mixed_requests(12),
    )


def byzantine_shard(tmp_path):
    return (
        dict(
            n_shards=4,
            replicas=3,
            seed=2,
            shard_overrides={
                1: {
                    "faults": "corrupt=1.0:overflow",
                    "integrity": NO_DEFENSE,
                }
            },
        ),
        [
            request(i, engine=e)
            for i, e in enumerate(["sequential", "block:2x8"] * 3)
        ],
    )


SHAPES = [
    skew0,
    zipf_with_a_second_wave,
    two_replicas,
    journalled_crash,
    byzantine_shard,
]


def observed(shape, tmp_path):
    """Everything one run of ``shape`` shows, as text and bytes."""
    kwargs, requests = shape(tmp_path)
    tracer = Tracer()
    cluster = ClusterRouter(n_devices=2, tracer=tracer, **kwargs)
    cluster.submit_all(requests)
    records = cluster.run()
    report = cluster.report()
    journal_dir = kwargs.get("journal_dir")
    return cluster, {
        "records": repr(records),
        "rows": report.render(),
        "report": repr(report),
        "shards": repr(
            [
                (
                    s.reports,
                    s.elapsed_s,
                    s.mttr_s,
                    s.crashes,
                    s.recoveries,
                    s.foreign_records,
                )
                for s in cluster.shards
            ]
        ),
        "journals": (
            {}
            if journal_dir is None
            else {
                p.name: p.read_bytes()
                for p in sorted(journal_dir.iterdir())
            }
        ),
        "events": repr(tracer.events),
    }


@needs_two_cpus
@pytest.mark.parametrize("shape", SHAPES, ids=lambda f: f.__name__)
def test_placement_changes_nothing(shape, tmp_path, forks):
    with one_cpu():
        alone, seen_alone = observed(shape, tmp_path / "alone")
    assert not forks
    spread, seen_spread = observed(shape, tmp_path / "spread")
    assert forks, "no worker was started"
    assert multiprocessing.active_children() == []
    for name, value in seen_alone.items():
        assert seen_spread[name] == value, name
    # The shapes are what they claim to be.
    report = spread.report()
    second_wave = shape is zipf_with_a_second_wave
    assert (report.missed, report.waves) == (
        (1, 2) if second_wave else (0, 1)
    )
    assert report.completed + report.missed == report.offered
    if shape is journalled_crash:
        assert report.shard_crashes == report.shard_recoveries == 1
        ids = [r.request.request_id for r in spread.records]
        assert len(ids) == len(set(ids)) == 12
    if shape is byzantine_shard:
        assert report.replica_dissent > 0
    if shape is skew0:
        assert len(seen_spread["events"]) > 2


def test_a_tracer_changes_no_report():
    """Each shard's services record into a span list of their own, so
    device utilisation never counts another shard's launches."""
    runs = []
    for tracer in (None, Tracer()):
        cluster = ClusterRouter(n_shards=3, seed=4, tracer=tracer)
        cluster.submit_all(mixed_requests(9))
        cluster.run()
        runs.append(repr(cluster.report()))
    assert runs[0] == runs[1]


def raising_router(seed, first_error, second_error):
    """Four shards with requests; shard 1 and shard 3 raise."""
    raises = {
        ServiceCrash: {"faults": "crash=tick:2"},
        ValueError: {"max_active": 0},
    }
    cluster = ClusterRouter(
        n_shards=4,
        seed=seed,
        shard_overrides={
            1: raises[first_error],
            3: raises[second_error],
        },
    )
    cluster.submit_all(skewed_requests())
    return cluster


@needs_two_cpus
@pytest.mark.parametrize(
    "errors", [(ServiceCrash, ValueError), (ValueError, ServiceCrash)]
)
# On two CPUs seed 1 gives shard 1 to the worker and shard 3 to the
# router's process; seed 4 the other way round.
@pytest.mark.parametrize("seed", [1, 4])
def test_the_lowest_raising_shard_raises_after_every_join(
    seed, errors, forks
):
    booked = []
    for pinned in (True, False):
        cluster = raising_router(seed, *errors)
        with one_cpu() if pinned else nullcontext():
            with pytest.raises(errors[0]):
                cluster.run()
        assert multiprocessing.active_children() == []
        # Shard 0 is booked, as a serial loop books it before shard 1
        # raises; the rest are not.
        booked.append(
            [(repr(s.reports), s.elapsed_s) for s in cluster.shards]
        )
        assert cluster.shards[0].reports
        assert not any(s.reports for s in cluster.shards[1:])
    assert forks
    assert booked[0] == booked[1]


@needs_two_cpus
def test_a_worker_that_dies_is_an_error(monkeypatch, forks):
    parent = os.getpid()
    play = ShardHandle.play

    def dies_in_a_worker(handle, requests):
        if os.getpid() != parent:
            os._exit(7)
        return play(handle, requests)

    monkeypatch.setattr(ShardHandle, "play", dies_in_a_worker)
    cluster = ClusterRouter(n_shards=4, seed=2)
    cluster.submit_all(skewed_requests())
    with pytest.raises(ServiceError, match="exited with code 7"):
        cluster.run()
    assert forks
    assert multiprocessing.active_children() == []


def test_groups_balance_largest_first():
    by_shard = {0: [None] * 5, 1: [None], 2: [None] * 3, 3: [None] * 3}
    # 0 (5) -> a, 2 (3) -> b, 3 (3) -> b, 1 (1) -> a: 6 and 6.
    assert _groups(by_shard, 2) == [[0, 1], [2, 3]]
    assert _groups(by_shard, 1) == [[0, 1, 2, 3]]
    assert _groups(by_shard, 4) == [[0], [2], [3], [1]]


def test_worker_count_follows_the_affinity_mask():
    with one_cpu():
        assert _cpus() == 1
    assert _cpus() == len(os.sched_getaffinity(0))


def test_memoised_keys_equal_the_keys_they_stand_for():
    game = make_game("connect4")
    moved = game.apply(game.initial_state(), 3)
    requests = [
        request(0, game="connect4", state=moved),
        request(1, game="connect4", state=moved, seed=9),
        request(2, game="connect4"),
        request(3, game="connect4", state=moved, engine="root:2"),
        request(4, engine={"kind": "sequential", "ucb_c": 2.0}),
        request(5, engine={"kind": "sequential", "ucb_c": 2.0}),
    ]
    cluster = ClusterRouter(n_shards=2, cache=True)
    for r in requests * 2:
        game = make_game(r.game)
        state = r.state if r.state is not None else game.initial_state()
        assert cluster._cache_key(r) == cache_key_for(
            game, state, r.engine, r.budget_s
        )
        assert cluster._route_key(r) == derive_seed(
            game.zobrist_key(state), r.game
        )
    # One key per distinct hashable search, one route per position;
    # the dict specs are keyed afresh each time.
    assert len(cluster._cache_keys) == 3
    assert len(cluster._route_keys) == 3
