"""Tests for the batched multi-tenant search service."""

import pytest

from repro.serve import (
    COMPLETED,
    MISSED,
    QUEUED,
    REJECTED,
    SearchRequest,
    SearchService,
    ServiceError,
    serve,
)

BUDGET = 0.002


def request(i, engine="sequential", **kwargs):
    defaults = dict(
        request_id=f"r{i}",
        game="tictactoe",
        engine=engine,
        budget_s=BUDGET,
        seed=100 + i,
    )
    defaults.update(kwargs)
    return SearchRequest(**defaults)


class TestValidation:
    def test_budget_must_be_positive(self):
        with pytest.raises(ValueError, match="budget"):
            request(0, budget_s=0.0)

    def test_bad_engine_spec_fails_at_submission(self):
        with pytest.raises(ValueError, match="warp_drive"):
            request(0, engine="warp_drive")

    def test_duplicate_request_id_rejected(self):
        service = SearchService(n_devices=1)
        service.submit(request(0))
        with pytest.raises(ServiceError, match="duplicate"):
            service.submit(request(0))

    def test_submit_and_run_after_run_rejected(self):
        service = SearchService(n_devices=1)
        service.submit(request(0))
        service.run()
        with pytest.raises(ServiceError, match="already ran"):
            service.submit(request(1))
        with pytest.raises(ServiceError, match="already ran"):
            service.run()

    def test_report_before_run_rejected(self):
        with pytest.raises(ServiceError, match="run"):
            SearchService(n_devices=1).report()


class TestCompletion:
    def test_mixed_generator_and_direct_engines_complete(self):
        reqs = [
            request(0, engine="sequential"),
            request(1, engine="root:2"),
            request(2, engine="tree:2"),
            request(3, engine="block:2x32"),
        ]
        records, report = serve(reqs, n_devices=2, seed=1)
        assert [r.status for r in records] == [COMPLETED] * 4
        for rec in records:
            assert rec.result is not None
            assert rec.result.simulations > 0
            assert rec.latency_s > 0
        assert report.completed == 4
        assert report.offered == 4

    def test_generator_requests_contribute_merged_lanes(self):
        records, report = serve(
            [request(0), request(1)], n_devices=1, seed=1
        )
        assert all(r.ticks > 0 and r.lanes > 0 for r in records)
        assert report.kernel_launches > 0
        assert report.mean_lanes_per_launch > 1.0

    def test_deterministic_across_runs(self):
        def run():
            return serve(
                [request(i) for i in range(4)], n_devices=2, seed=7
            )

        first, _ = run()
        second, _ = run()
        for a, b in zip(first, second):
            assert a.status == b.status
            assert a.latency_s == b.latency_s
            assert a.result.move == b.result.move
            assert a.result.simulations == b.result.simulations

    def test_staggered_arrivals_respected(self):
        reqs = [
            request(0, arrival_s=0.0),
            request(1, arrival_s=0.5),
        ]
        records, _ = serve(reqs, n_devices=1)
        assert records[1].start_s >= 0.5
        assert records[0].finish_s < 0.5  # served during the idle gap


class TestAdmission:
    def test_queue_overflow_rejects(self):
        reqs = [request(i) for i in range(3)]
        records, report = serve(
            reqs, n_devices=1, max_active=1, max_queue=1
        )
        statuses = [r.status for r in records]
        assert statuses.count(COMPLETED) == 2
        assert statuses.count(REJECTED) == 1
        assert report.rejected == 1

    def test_queued_requests_wait_then_run(self):
        reqs = [request(i) for i in range(3)]
        service = SearchService(n_devices=1, max_active=1)
        recs = service.submit_all(reqs)
        mid_statuses = set()

        # All three arrive at t=0 with one slot: two must queue.
        service.run()
        mid_statuses = {r.status for r in recs}
        assert mid_statuses == {COMPLETED}
        waits = sorted(r.queue_wait_s for r in recs)
        assert waits[0] == 0.0
        assert waits[-1] > 0.0

    def test_queued_status_visible_in_lifecycle(self):
        # With zero queue slots the QUEUED constant is never reached;
        # sanity-check the constant exists and is non-terminal.
        from repro.serve import TERMINAL_STATUSES

        assert QUEUED not in TERMINAL_STATUSES


class TestDeadlines:
    def test_impossible_deadline_missed(self):
        reqs = [request(0, deadline_s=1e-9)]
        records, report = serve(reqs, n_devices=1)
        assert records[0].status == MISSED
        assert records[0].result is None
        assert report.missed == 1

    def test_queued_past_deadline_missed_without_running(self):
        reqs = [
            request(0),
            request(1, deadline_s=1e-9),
        ]
        records, _ = serve(reqs, n_devices=1, max_active=1)
        assert records[0].status == COMPLETED
        assert records[1].status == MISSED
        assert records[1].start_s is None

    def test_enforce_deadlines_off_completes_everything(self):
        reqs = [request(i, deadline_s=1e-9) for i in range(2)]
        records, _ = serve(
            reqs, n_devices=1, enforce_deadlines=False
        )
        assert all(r.status == COMPLETED for r in records)

    def test_generous_deadline_met(self):
        records, _ = serve(
            [request(0, deadline_s=60.0)], n_devices=1
        )
        assert records[0].status == COMPLETED


class TestConcurrencySpeedup:
    def test_concurrent_beats_serial_throughput(self):
        """The tentpole claim in miniature: merging concurrent searches
        over a shared pool beats running them back-to-back."""
        reqs = [request(i) for i in range(8)]
        _, concurrent = serve(reqs, n_devices=2, max_active=8, seed=3)
        _, serial = serve(
            reqs,
            n_devices=1,
            max_active=1,
            seed=3,
            enforce_deadlines=False,
        )
        assert concurrent.completed == serial.completed == 8
        assert concurrent.requests_per_s > serial.requests_per_s
