"""Tests for the shared device pool (repro.gpu.lease)."""

import weakref

import pytest

from repro.gpu import TESLA_C2050, DevicePool, PoolError
from repro.gpu.trace import Tracer
from repro.util.clock import Clock


def make_pool(n=2):
    clock = Clock()
    tracer = Tracer()
    pool = DevicePool((TESLA_C2050,) * n, clock, tracer)
    return pool, clock, tracer


class TestPlacement:
    def test_empty_pool_rejected(self):
        with pytest.raises(PoolError, match="at least one"):
            DevicePool((), Clock())

    def test_least_busy_round_robins_under_equal_load(self):
        pool, _, _ = make_pool(3)
        seen = []
        for _ in range(3):
            lease = pool.launch("req", 1e-3)
            seen.append(lease.device_id)
        assert seen == [0, 1, 2]

    def test_explicit_device_id_respected(self):
        pool, _, _ = make_pool(2)
        lease = pool.launch("req", 1e-3, device_id=1)
        assert lease.device_id == 1

    def test_unknown_device_id_rejected(self):
        pool, _, _ = make_pool(2)
        with pytest.raises(PoolError, match="no device 5"):
            pool.launch("req", 1e-3, device_id=5)

    def test_in_order_stream_serialises_same_device(self):
        pool, _, _ = make_pool(1)
        a = pool.launch("a", 1e-3)
        b = pool.launch("b", 1e-3)
        assert b.start_s == pytest.approx(a.end_s)
        assert b.duration_s == pytest.approx(1e-3)


class TestSynchronisation:
    def test_synchronize_advances_clock_to_completion(self):
        pool, clock, _ = make_pool(1)
        lease = pool.launch("req", 2e-3)
        assert clock.now == 0.0
        pool.synchronize(lease)
        assert clock.now == pytest.approx(2e-3)

    def test_complete_tracks_clock(self):
        pool, clock, _ = make_pool(1)
        lease = pool.launch("req", 1e-3)
        assert not pool.complete(lease)
        clock.advance(2e-3)
        assert pool.complete(lease)


class TestAccounting:
    def test_tracer_spans_per_device_track(self):
        pool, _, tracer = make_pool(2)
        pool.launch("a", 1e-3, device_id=0, label="k0")
        pool.launch("b", 2e-3, device_id=1, label="k1")
        tracks = {e.track for e in tracer.events}
        assert tracks == {"gpu0", "gpu1"}
        holders = {e.args["holder"] for e in tracer.events}
        assert holders == {"a", "b"}

    def test_utilization_busy_over_elapsed(self):
        pool, _, _ = make_pool(2)
        pool.launch("a", 1e-3, device_id=0)
        util = pool.utilization(4e-3)
        assert util["gpu0"] == pytest.approx(0.25)
        assert util["gpu1"] == 0.0

    def test_busy_seconds_and_launch_counts(self):
        pool, _, _ = make_pool(1)
        pool.launch("a", 1e-3)
        pool.launch("a", 2e-3)
        assert pool.busy_seconds(0) == pytest.approx(3e-3)
        assert pool.launches(0) == 2


class TestHealth:
    def test_quarantine_after_consecutive_failures(self):
        pool, _, _ = make_pool(2)
        assert not pool.mark_failure(0)
        assert not pool.mark_failure(0)
        assert pool.mark_failure(0)  # third strike quarantines
        assert pool.is_quarantined(0)
        assert pool.healthy_ids() == [1]
        assert pool.health(0)["quarantines"] == 1

    def test_success_clears_the_failure_streak(self):
        pool, _, _ = make_pool(1)
        pool.mark_failure(0)
        pool.mark_failure(0)
        pool.mark_success(0)
        assert not pool.mark_failure(0)
        assert not pool.is_quarantined(0)

    def test_quarantine_expires_with_the_clock(self):
        pool, clock, _ = make_pool(1)
        for _ in range(3):
            pool.mark_failure(0)
        assert pool.is_quarantined(0)
        clock.advance(pool.quarantine_s)
        assert not pool.is_quarantined(0)
        assert pool.healthy_ids() == [0]

    def test_least_busy_skips_quarantined_devices(self):
        pool, _, _ = make_pool(2)
        for _ in range(3):
            pool.mark_failure(0)
        assert pool.least_busy() == 1

    def test_placement_falls_back_when_all_quarantined(self):
        pool, _, _ = make_pool(2)
        for device in (0, 1):
            for _ in range(3):
                pool.mark_failure(device)
        # No healthy device left: don't deadlock, use the full pool.
        assert pool.least_busy() == 0

    def test_explicit_candidates_used_verbatim(self):
        pool, _, _ = make_pool(2)
        for _ in range(3):
            pool.mark_failure(1)
        assert pool.least_busy([1]) == 1
        with pytest.raises(PoolError, match="no candidate"):
            pool.least_busy([])


class TestLeaseResolution:
    """Regression tests for the lease-leak bug: every launch must be
    synchronized, completed or abandoned by service drain."""

    def test_unresolved_lease_fails_drain(self):
        pool, _, _ = make_pool(1)
        pool.launch("leaker", 1e-3)
        with pytest.raises(PoolError, match="leaker"):
            pool.assert_drained()

    def test_synchronize_resolves(self):
        pool, _, _ = make_pool(1)
        lease = pool.launch("req", 1e-3)
        assert pool.unresolved_leases == (lease,)
        pool.synchronize(lease)
        pool.assert_drained()

    def test_complete_resolves_only_when_done(self):
        pool, clock, _ = make_pool(1)
        lease = pool.launch("req", 1e-3)
        assert not pool.complete(lease)
        assert pool.unresolved_leases == (lease,)
        clock.advance(2e-3)
        assert pool.complete(lease)
        pool.assert_drained()

    def test_abandon_resolves_without_waiting(self):
        pool, clock, _ = make_pool(1)
        lease = pool.launch("req", 1e-3)
        pool.abandon(lease)
        pool.assert_drained()
        # Abandoning never blocks the host clock.
        assert clock.now == 0.0

    def test_drain_reports_every_leaking_holder(self):
        pool, _, _ = make_pool(2)
        pool.launch("r1", 1e-3, device_id=0)
        pool.launch("r2", 1e-3, device_id=1)
        with pytest.raises(PoolError, match="r1, r2"):
            pool.assert_drained()


class TestNotBefore:
    def test_launch_delayed_to_not_before(self):
        pool, _, _ = make_pool(1)
        lease = pool.launch("req", 1e-3, not_before_s=5e-3)
        assert lease.start_s == pytest.approx(5e-3)
        assert lease.end_s == pytest.approx(6e-3)

    def test_busy_stream_dominates_not_before(self):
        pool, _, _ = make_pool(1)
        pool.launch("a", 4e-3)
        lease = pool.launch("b", 1e-3, not_before_s=1e-3)
        assert lease.start_s == pytest.approx(4e-3)


class TestRetention:
    """The pool keeps only the leases still awaiting resolution."""

    def test_resolved_leases_are_forgotten(self):
        pool, _, _ = make_pool(2)
        issued = []
        for _ in range(1000):
            lease = pool.launch("req", 1e-6)
            issued.append(weakref.ref(lease))
            pool.synchronize(lease)
        del lease
        assert pool.unresolved_leases == ()
        assert [ref() for ref in issued] == [None] * 1000
        assert pool.launch("req", 1e-6).lease_id == 1000

    def test_unresolved_leases_keep_issue_order(self):
        pool, clock, _ = make_pool(2)
        leases = [pool.launch(f"r{i}", (i + 1) * 1e-3) for i in range(6)]
        pool.abandon(leases[1])
        pool.synchronize(leases[4])
        assert pool.unresolved_leases == (
            leases[0], leases[2], leases[3], leases[5]
        )
        clock.advance(1.0)
        assert [pool.complete(lease) for lease in leases[::-1]] == [True] * 6
        pool.assert_drained()
