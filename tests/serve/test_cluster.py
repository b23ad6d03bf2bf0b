"""The sharded serving cluster: consistent-hash routing, the
single-shard bit-identity pin, replica voting, cache coalescing,
journal-backed shard recovery, and the per-shard report."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.serve import (
    COMPLETED,
    MISSED,
    ClusterRouter,
    HashRing,
    ResultCache,
    SearchRequest,
    SearchService,
    ServiceError,
)
from repro.serve.cluster import VNODES
from repro.util.seeding import derive_seed
from tests.core.test_differential import SMALL_SPECS
from tests.serve.reference_ring import ReferenceRing

BUDGET = 4e-4

#: Integrity defenses fully off: a Byzantine shard's corruption
#: reaches its replica answers untouched.
NO_DEFENSE = {
    "validate_results": False,
    "audit_every": 0,
    "quarantine": False,
}


def request(i, engine="sequential", **kwargs):
    defaults = dict(
        request_id=f"r{i:03d}",
        game="tictactoe",
        engine=engine,
        budget_s=BUDGET,
        seed=100 + i,
        arrival_s=i * 1e-3,
    )
    defaults.update(kwargs)
    return SearchRequest(**defaults)


def mixed_requests(n=6):
    games = ["tictactoe", "reversi", "connect4"]
    engines = ["sequential", "root:2", "leaf:1x16"]
    return [
        request(i, game=games[i % 3], engine=engines[i % 3])
        for i in range(n)
    ]


def fingerprint(record):
    """Everything observable about one request's outcome."""
    stats = (
        None
        if record.result is None
        else tuple(sorted(record.result.stats.items()))
    )
    return (
        record.request.request_id,
        record.status,
        record.start_s,
        record.finish_s,
        record.ticks,
        record.lanes,
        record.degraded,
        record.lost_lanes,
        None if record.result is None else record.result.move,
        stats,
        None
        if record.result is None
        else record.result.iterations,
        None
        if record.result is None
        else record.result.simulations,
    )


# -- consistent-hash ring ----------------------------------------------------


class TestHashRing:
    def test_deterministic_and_distinct_replicas(self):
        ring = HashRing(8, seed=3)
        again = HashRing(8, seed=3)
        for key in range(0, 2**64, 2**59):
            owners = ring.shards_for(key, 3)
            assert owners == again.shards_for(key, 3)
            assert len(owners) == len(set(owners)) == 3
            assert all(0 <= s < 8 for s in owners)

    def test_replica_count_capped_at_shards(self):
        ring = HashRing(2, seed=0)
        assert len(ring.shards_for(123, 5)) == 2

    def test_keys_spread_over_shards(self):
        ring = HashRing(4, seed=1)
        owners = {
            ring.shard_for(derive_seed(7, k)) for k in range(200)
        }
        assert owners == {0, 1, 2, 3}

    def test_adding_a_shard_moves_few_keys(self):
        # The consistent-hashing contract: growing the ring only
        # remaps the keys landing in the new shard's arcs.
        keys = [derive_seed(11, k) for k in range(500)]
        small = HashRing(8, seed=2)
        grown = HashRing(9, seed=2)
        moved = sum(
            1
            for k in keys
            if small.shard_for(k) != grown.shard_for(k)
        )
        # Expect ~1/9 of keys to move; allow generous slack.
        assert moved < len(keys) * 0.25

    def test_rejects_bad_config(self):
        with pytest.raises(ValueError):
            HashRing(0)

    @settings(max_examples=60, deadline=None)
    @given(
        n_shards=st.integers(1, 16),
        seed=st.integers(0, 2**64 - 1),
        data=st.data(),
    )
    def test_placement_matches_the_reference_ring(
        self, n_shards, seed, data
    ):
        # The single clockwise walk places every key on the owners the
        # failure-domain ring gave it with one domain per shard --
        # random keys, the ring's own points and both ends of the ring.
        ring = HashRing(n_shards, seed=seed)
        reference = ReferenceRing(n_shards, vnodes=VNODES, seed=seed)
        points = data.draw(
            st.lists(st.sampled_from(ring._hashes), max_size=4)
        )
        keys = data.draw(
            st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=8)
        )
        for key in keys + points + [0, 2**64 - 1]:
            for count in range(1, n_shards + 3):
                assert ring.shards_for(key, count) == (
                    reference.shards_for(key, count)
                )
            assert ring.shard_for(key) == reference.shards_for(key)[0]


# -- the bit-identity pin ----------------------------------------------------


@pytest.mark.parametrize("backend", ["node", "arena"])
@pytest.mark.parametrize(
    "kind", sorted(SMALL_SPECS), ids=sorted(SMALL_SPECS)
)
def test_single_shard_cluster_is_bit_identical(kind, backend):
    """A 1-shard, 1-replica, cache-off cluster must produce exactly
    the bare service's records -- every engine kind, both backends."""
    spec = SMALL_SPECS[kind]
    reqs = [
        request(i, engine=spec, game=game)
        for i, game in enumerate(
            ["tictactoe", "reversi", "connect4"]
        )
    ]
    bare = SearchService(seed=9, n_devices=2, backend=backend)
    bare.submit_all(reqs)
    bare_records = bare.run()

    cluster = ClusterRouter(
        n_shards=1,
        replicas=1,
        cache=None,
        seed=9,
        n_devices=2,
        backend=backend,
    )
    cluster.submit_all(reqs)
    cluster_records = cluster.run()

    assert [fingerprint(r) for r in cluster_records] == [
        fingerprint(r) for r in bare_records
    ]


# -- routing -----------------------------------------------------------------


def test_transpositions_route_to_the_same_shard():
    from repro.games import make_game

    game = make_game("tictactoe")
    s = game.initial_state()
    a = game.apply(game.apply(game.apply(s, 0), 4), 8)
    b = game.apply(game.apply(game.apply(s, 8), 4), 0)
    cluster = ClusterRouter(n_shards=8, seed=4)
    ra = request(0, state=a)
    rb = request(1, state=b)
    assert cluster._route_key(ra) == cluster._route_key(rb)
    assert cluster.ring.shard_for(
        cluster._route_key(ra)
    ) == cluster.ring.shard_for(cluster._route_key(rb))


def test_requests_fan_out_across_shards():
    cluster = ClusterRouter(n_shards=4, seed=0, cache=None)
    cluster.submit_all(mixed_requests(12))
    records = cluster.run()
    assert all(r.status == COMPLETED for r in records)
    report = cluster.report()
    assert report.completed == 12
    served = sum(
        1 for rep in report.shard_reports if rep.offered > 0
    )
    assert served >= 2  # traffic actually spread out
    assert report.elapsed_s == max(report.shard_elapsed_s)


def test_submission_errors():
    cluster = ClusterRouter(n_shards=2)
    cluster.submit(request(0))
    with pytest.raises(ServiceError):
        cluster.submit(request(0))
    cluster.run()
    with pytest.raises(ServiceError):
        cluster.submit(request(1))
    with pytest.raises(ServiceError):
        cluster.run()
    with pytest.raises(ValueError):
        ClusterRouter(n_shards=2, replicas=0)
    # A kwarg no shard service takes fails at construction.
    with pytest.raises(TypeError):
        ClusterRouter(n_shards=2, vote_trim=0.5)


# -- the result cache in the cluster -----------------------------------------


def duplicate_position_requests(n=8):
    """All asking the same search of the same position."""
    return [
        request(i, engine="sequential", seed=500 + i)
        for i in range(n)
    ]


class TestClusterCache:
    def test_duplicates_coalesce_behind_one_leader(self):
        cluster = ClusterRouter(n_shards=2, seed=1, cache=True)
        cluster.submit_all(duplicate_position_requests(8))
        records = cluster.run()
        assert all(r.status == COMPLETED for r in records)
        report = cluster.report()
        # One leader searched; seven duplicates rode its result.
        assert report.cache_hits == 7
        assert report.cache_hit_rate > 0
        leader, *rest = records
        assert "cache_hit" not in leader.extras
        for r in rest:
            assert r.extras.get("cache_hit") is True
            assert r.result.move == leader.result.move
            # Served at/after the leader finished, plus hit cost.
            assert r.finish_s >= leader.finish_s

    def test_request_seed_is_not_part_of_the_key(self):
        # Different seeds, same position/spec/budget: one search.
        cluster = ClusterRouter(n_shards=1, seed=1, cache=True)
        cluster.submit_all(duplicate_position_requests(4))
        cluster.run()
        assert cluster.report().cache_misses == 1

    def test_stack_spellings_of_one_search_run_once(self):
        # Every stack returns the bit-identical result, so two stack
        # spellings of one search share a cache line: one search.
        cluster = ClusterRouter(n_shards=1, seed=1, cache=True)
        cluster.submit_all(
            [
                request(0, engine="root:2@node"),
                request(1, engine="root:2@arena@numpy", seed=600),
            ]
        )
        leader, follower = cluster.run()
        report = cluster.report()
        assert (report.cache_misses, report.cache_hits) == (1, 1)
        assert report.shard_reports[0].offered == 1
        assert follower.extras.get("cache_hit") is True
        assert follower.result is leader.result

    def test_cache_off_never_hits(self):
        cluster = ClusterRouter(n_shards=2, seed=1, cache=None)
        cluster.submit_all(duplicate_position_requests(6))
        records = cluster.run()
        report = cluster.report()
        assert report.cache_hits == 0
        assert report.completed == 6
        # Every request paid for its own search.
        assert all(
            "cache_hit" not in r.extras for r in records
        )

    def test_prewarmed_cache_serves_at_arrival(self):
        cache = ResultCache()
        warm = ClusterRouter(n_shards=1, seed=1, cache=cache)
        warm.submit_all(duplicate_position_requests(2))
        warm.run()
        cluster = ClusterRouter(n_shards=1, seed=1, cache=cache)
        cluster.submit(request(0, seed=999))
        (record,) = cluster.run()
        assert record.extras.get("cache_hit") is True
        # No leader to wait on: answered right at arrival.
        assert record.finish_s == pytest.approx(
            record.request.arrival_s + cluster.cache_hit_cost_s
        )

    def test_follower_past_deadline_is_missed(self):
        reqs = [
            request(0, budget_s=2e-3),
            request(
                1,
                budget_s=2e-3,
                seed=600,
                deadline_s=1e-6,
            ),
        ]
        cluster = ClusterRouter(n_shards=1, seed=1, cache=True)
        cluster.submit_all(reqs)
        records = cluster.run()
        assert records[0].status == COMPLETED
        # The leader's answer landed after the follower's deadline.
        assert records[1].status == MISSED
        assert records[1].extras.get("cache_hit") is True

    def test_per_shard_rows_count_every_wave(self):
        # The leader misses its 1 us deadline, so its three followers
        # re-dispatch: the shard serves the failed leader in wave 1
        # and the new leader in wave 2, and its row counts both.
        reqs = [request(0, deadline_s=1e-6)] + [
            request(i, arrival_s=0.0, seed=500 + i) for i in (1, 2, 3)
        ]
        cluster = ClusterRouter(n_shards=1, seed=1, cache=True)
        cluster.submit_all(reqs)
        cluster.run()
        report = cluster.report()
        assert (report.offered, report.missed, report.waves) == (4, 1, 2)
        (shard,) = report.shard_reports
        assert (shard.offered, shard.completed, shard.missed) == (2, 1, 1)
        assert len(cluster.shards[0].reports) == 2
        per_shard = report.render().split("per-shard")[1]
        assert "offered      2" in per_shard
        assert "missed       1" in per_shard


# -- replica voting ----------------------------------------------------------


class TestReplication:
    def test_replicas_aggregate_via_trimmed_vote(self):
        cluster = ClusterRouter(
            n_shards=4, replicas=3, seed=2, cache=None
        )
        reqs = mixed_requests(6)
        cluster.submit_all(reqs)
        records = cluster.run()
        assert all(r.status == COMPLETED for r in records)
        for r in records:
            assert r.result.engine == "cluster"
            assert r.result.extras["cluster.replicas"] == 3
        # Replica clones actually landed on distinct shards.
        offered = sum(
            rep.offered
            for rep in cluster.report().shard_reports
        )
        assert offered == 18

    def test_byzantine_shard_survives_the_vote(self):
        """One shard returning corrupted statistics must not steer
        the voted answer away from the objectively best move."""
        from repro.games import make_game

        game = make_game("tictactoe")

        def pos(moves):
            state = game.initial_state()
            for m in moves:
                state = game.apply(state, m)
            return state

        # Forced wins: every clean search agrees on one move, so the
        # trimmed median is anchored by the two clean replicas.
        wins = [
            ((0, 3, 1, 4), 2),
            ((2, 3, 1, 4), 0),
            ((6, 0, 7, 1), 8),
            ((8, 0, 7, 1), 6),
            ((0, 1, 3, 2), 6),
            ((2, 1, 5, 4), 8),
        ]
        reqs = [
            request(i, budget_s=8e-4, state=pos(moves))
            for i, (moves, _) in enumerate(wins)
        ]
        byz = ClusterRouter(
            n_shards=4,
            replicas=3,
            seed=2,
            cache=None,
            shard_overrides={
                1: {
                    "faults": "corrupt=1.0:overflow",
                    "integrity": NO_DEFENSE,
                }
            },
        )
        byz.submit_all(reqs)
        byz_records = byz.run()
        assert all(r.status == COMPLETED for r in byz_records)
        # The corruption demonstrably altered Byzantine replicas'
        # own answers ...
        assert byz.report().replica_dissent > 0
        # ... yet every voted move is still the forced win.
        for record, (_, winning_move) in zip(byz_records, wins):
            assert record.result.move == winning_move

    def test_one_replica_record_is_the_shard_record(self):
        cluster = ClusterRouter(
            n_shards=4, replicas=1, seed=2, cache=None
        )
        cluster.submit_all(mixed_requests(4))
        records = cluster.run()
        # No vote, no "cluster" engine: the shard's own result.
        assert all(
            r.result.engine != "cluster" for r in records
        )


# -- shard crash recovery ----------------------------------------------------


class TestShardRecovery:
    def test_crashed_shard_recovers_exactly_once(self, tmp_path):
        cluster = ClusterRouter(
            n_shards=2,
            replicas=1,
            seed=3,
            cache=None,
            journal_dir=tmp_path,
            faults="crash=tick:3",
        )
        reqs = mixed_requests(8)
        cluster.submit_all(reqs)
        records = cluster.run()
        assert [r.request.request_id for r in records] == [
            r.request_id for r in reqs
        ]
        assert all(r.status == COMPLETED for r in records)
        report = cluster.report()
        assert report.shard_crashes >= 1
        assert report.shard_recoveries == report.shard_crashes
        assert report.mean_mttr_s > 0
        rendered = report.render()
        assert "shard crashes" in rendered
        assert "mean MTTR (s)" in rendered

    def test_crash_without_journal_propagates(self):
        from repro.serve import ServiceCrash

        cluster = ClusterRouter(
            n_shards=1,
            seed=3,
            cache=None,
            faults="crash=tick:2",
        )
        cluster.submit_all(mixed_requests(4))
        with pytest.raises(ServiceCrash):
            cluster.run()

    def test_recovery_is_scoped_to_the_shards_own_requests(
        self, tmp_path
    ):
        # Both shards share one journal *directory*; each recovers
        # only from its own file, rid-scoped.
        cluster = ClusterRouter(
            n_shards=2,
            replicas=2,
            seed=3,
            cache=None,
            journal_dir=tmp_path,
            faults="crash=tick:4",
        )
        cluster.submit_all(mixed_requests(6))
        records = cluster.run()
        assert all(r.status == COMPLETED for r in records)
        assert (
            len({r.request.request_id for r in records}) == 6
        )


# -- reporting ---------------------------------------------------------------


def test_report_shares_the_service_row_format():
    from repro.serve import ServiceReport

    cluster = ClusterRouter(n_shards=2, seed=1, cache=True)
    cluster.submit_all(mixed_requests(6))
    cluster.run()
    report = cluster.report()
    rendered = report.render()
    shard_rendered = report.shard_reports[0].render()
    # The shared outcome rows appear, with identical labels, in both
    # the aggregate and the per-shard tables (one formatter).
    for label in (
        "offered requests",
        "completed",
        "latency p50 (ms)",
        "requests/s",
    ):
        assert label in rendered
        assert label in shard_rendered
    assert "per-shard" in rendered
    assert isinstance(report.shard_reports[0], ServiceReport)
    assert report.requests_per_s >= 0
    assert 0 <= report.completion_rate <= 1


def test_report_before_run_raises():
    cluster = ClusterRouter(n_shards=1)
    with pytest.raises(ServiceError):
        cluster.report()
