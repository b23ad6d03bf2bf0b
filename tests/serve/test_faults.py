"""Fault-injection subsystem + resilient serving (repro.faults,
repro.serve.resilience)."""

import pytest

from repro.faults import (
    KIND_LAUNCH_FAIL,
    KIND_LOST_RESULT,
    KIND_MPI_DROP,
    KIND_OUTAGE,
    KIND_STALL,
    DeviceOutage,
    FaultInjector,
    FaultPlan,
    FaultPlanError,
)
from repro.gpu import TESLA_C2050, DevicePool
from repro.gpu.trace import Tracer
from repro.gpu.lease import QUARANTINE_AFTER
from repro.serve import (
    ResilientLauncher,
    SearchRequest,
    SearchService,
)
from repro.serve import resilience
from repro.serve.resilience import KIND_TIMEOUT, MAX_RETRIES, timeout_s
from repro.util.clock import Clock

pytestmark = pytest.mark.faults


class TestFaultPlan:
    def test_parse_full_grammar(self):
        plan = FaultPlan.parse(
            "launch=0.1, lost=0.05, stall=0.02x8, "
            "outage=1@0.5+0.2, drop=0.01, seed=7"
        )
        assert plan.launch_fail_rate == 0.1
        assert plan.lost_result_rate == 0.05
        assert plan.stall_rate == 0.02
        assert plan.stall_factor == 8.0
        assert plan.mpi_drop_rate == 0.01
        assert plan.outages == (DeviceOutage(1, 0.5, 0.2),)
        assert plan.seed == 7

    def test_parse_accumulates_multiple_outages(self):
        plan = FaultPlan.parse("outage=0@0.1+0.1,outage=2@0.3+0.5")
        assert len(plan.outages) == 2
        assert plan.outages[1] == DeviceOutage(2, 0.3, 0.5)

    def test_parse_rejects_unknown_keys(self):
        with pytest.raises(FaultPlanError, match="unknown fault plan key"):
            FaultPlan.parse("explode=0.5")

    def test_parse_rejects_malformed_entries(self):
        for bad in ("launch", "launch=abc", "outage=1@0.5", ""):
            with pytest.raises(FaultPlanError):
                FaultPlan.parse(bad)

    def test_rates_validated(self):
        with pytest.raises(FaultPlanError, match=r"\[0, 1\]"):
            FaultPlan(launch_fail_rate=1.5)
        with pytest.raises(FaultPlanError, match="sum"):
            FaultPlan(launch_fail_rate=0.6, lost_result_rate=0.6)
        with pytest.raises(FaultPlanError, match="stall factor"):
            FaultPlan(stall_rate=0.1, stall_factor=1.0)

    def test_outage_validated(self):
        with pytest.raises(FaultPlanError, match="duration"):
            DeviceOutage(0, 0.0, 0.0)

    def test_scaled_multiplies_rates_and_clamps(self):
        plan = FaultPlan.parse("launch=0.4,drop=0.3")
        assert plan.scaled(2.0).launch_fail_rate == pytest.approx(0.8)
        assert plan.scaled(0.0).injects_anything is False
        assert plan.scaled(10.0).launch_fail_rate == 1.0

    def test_coerce(self):
        assert FaultPlan.coerce(None) is None
        plan = FaultPlan(seed=3)
        assert FaultPlan.coerce(plan) is plan
        assert FaultPlan.coerce("seed=3") == plan
        with pytest.raises(FaultPlanError, match="must be"):
            FaultPlan.coerce(42)

    def test_injects_anything(self):
        assert not FaultPlan().injects_anything
        assert not FaultPlan(seed=99).injects_anything
        assert FaultPlan(stall_rate=0.1).injects_anything
        assert FaultPlan(
            outages=(DeviceOutage(0, 0.0, 1.0),)
        ).injects_anything


class TestFaultInjector:
    def test_decisions_deterministic_under_seed(self):
        plan = FaultPlan.parse("launch=0.2,lost=0.1,stall=0.1x4,seed=7")
        a = FaultInjector(plan)
        b = FaultInjector(plan)
        faults_a = [a.launch_fault(0, 0.0) for _ in range(200)]
        faults_b = [b.launch_fault(0, 0.0) for _ in range(200)]
        assert faults_a == faults_b
        assert a.counters == b.counters

    def test_different_seeds_differ(self):
        def draws(seed):
            inj = FaultInjector(
                FaultPlan(launch_fail_rate=0.5, seed=seed)
            )
            return [inj.launch_fault(0, 0.0) for _ in range(64)]

        assert draws(1) != draws(2)

    def test_zero_rates_consume_no_draws(self):
        inj = FaultInjector(FaultPlan(seed=5))
        for _ in range(50):
            assert inj.launch_fault(0, 0.0) is None
            assert inj.drop_message() is False
        assert inj.total_injected == 0
        assert inj.injected() == {}

    def test_rates_roughly_respected(self):
        inj = FaultInjector(
            FaultPlan.parse("launch=0.2,lost=0.1,stall=0.1x4,seed=3")
        )
        n = 2000
        for _ in range(n):
            inj.launch_fault(0, 0.0)
        assert inj.counters[KIND_LAUNCH_FAIL] / n == pytest.approx(
            0.2, abs=0.05
        )
        assert inj.counters[KIND_LOST_RESULT] / n == pytest.approx(
            0.1, abs=0.04
        )
        assert inj.counters[KIND_STALL] / n == pytest.approx(
            0.1, abs=0.04
        )

    def test_stall_carries_the_plan_factor(self):
        inj = FaultInjector(FaultPlan(stall_rate=1.0, stall_factor=6.0))
        fault = inj.launch_fault(0, 0.0)
        assert fault.kind == KIND_STALL
        assert fault.factor == 6.0

    def test_outage_takes_precedence_and_consumes_no_draw(self):
        plan = FaultPlan(
            launch_fail_rate=0.5,
            outages=(DeviceOutage(1, 0.0, 1.0),),
            seed=9,
        )
        inj = FaultInjector(plan)
        fault = inj.launch_fault(1, 0.5)
        assert fault.kind == KIND_OUTAGE
        # Same draw counter as a fresh injector: the outage decision
        # did not consume a launch draw.
        fresh = FaultInjector(plan)
        assert inj.launch_fault(0, 2.0) == fresh.launch_fault(0, 2.0)

    def test_outage_window_boundaries(self):
        inj = FaultInjector(
            FaultPlan(outages=(DeviceOutage(0, 0.5, 0.2),))
        )
        assert inj.outage_at(0, 0.49) is None
        assert inj.outage_at(0, 0.5) is not None
        assert inj.outage_at(0, 0.69) is not None
        assert inj.outage_at(0, 0.7) is None
        assert inj.outage_at(1, 0.6) is None

    def test_mpi_draws_independent_of_launch_draws(self):
        plan = FaultPlan.parse("launch=0.3,drop=0.3,seed=11")
        a = FaultInjector(plan)
        b = FaultInjector(plan)
        # Interleave differently; per-tag counters keep decisions equal.
        drops_a = [a.drop_message() for _ in range(20)]
        [a.launch_fault(0, 0.0) for _ in range(20)]
        [b.launch_fault(0, 0.0) for _ in range(20)]
        drops_b = [b.drop_message() for _ in range(20)]
        assert drops_a == drops_b


def make_launcher(plan=None, n=2):
    clock = Clock()
    pool = DevicePool((TESLA_C2050,) * n, clock, Tracer())
    injector = FaultInjector(plan) if plan is not None else None
    return (
        ResilientLauncher(pool, injector=injector),
        pool,
        clock,
    )


class TestResilientLauncher:
    def test_clean_launch_single_attempt(self):
        launcher, pool, _ = make_launcher()
        outcome = launcher.launch("req", lambda spec: 1e-3)
        assert outcome.delivered
        assert outcome.retries == 0
        assert outcome.ready_s == pytest.approx(1e-3)
        assert launcher.retries == 0
        pool.synchronize(outcome.lease)
        pool.assert_drained()

    def test_launch_failures_retry_on_other_devices(self):
        # Deterministic all-fail window: device 0 is down; the first
        # attempt there fails fast and the retry lands on device 1.
        plan = FaultPlan(outages=(DeviceOutage(0, 0.0, 1.0),))
        launcher, pool, _ = make_launcher(plan)
        outcome = launcher.launch("req", lambda spec: 1e-3)
        assert outcome.delivered
        assert outcome.retries == 1
        assert outcome.attempts[0].fault == KIND_OUTAGE
        assert outcome.attempts[0].device_id == 0
        assert outcome.attempts[1].device_id == 1
        assert outcome.wasted_wait_s > 0
        pool.synchronize(outcome.lease)
        pool.assert_drained()

    def test_backoff_delays_each_retry(self):
        plan = FaultPlan(
            outages=(
                DeviceOutage(0, 0.0, 1.0),
                DeviceOutage(1, 0.0, 1.0),
            )
        )
        launcher, _, _ = make_launcher(plan)
        outcome = launcher.launch("req", lambda spec: 1e-3)
        assert not outcome.delivered
        starts = [a.start_s for a in outcome.attempts]
        assert starts == sorted(starts)
        # Exponential backoff: gaps grow between consecutive attempts.
        gaps = [b - a for a, b in zip(starts, starts[1:])]
        assert all(g2 > g1 for g1, g2 in zip(gaps, gaps[1:]))

    def test_exhausted_chain_reported_lost_not_raised(self):
        plan = FaultPlan(
            outages=(
                DeviceOutage(0, 0.0, 10.0),
                DeviceOutage(1, 0.0, 10.0),
            )
        )
        launcher, pool, _ = make_launcher(plan)
        outcome = launcher.launch("req", lambda spec: 1e-3)
        assert not outcome.delivered
        assert outcome.lease is None
        assert outcome.retries == MAX_RETRIES
        assert launcher.lost_launches == 1
        pool.assert_drained()  # failed attempts left nothing unresolved

    def test_short_stall_absorbed_within_timeout(self):
        # A 2x stall sits inside the 3x timeout.
        plan = FaultPlan(stall_rate=1.0, stall_factor=2.0)
        launcher, pool, _ = make_launcher(plan)
        outcome = launcher.launch("req", lambda spec: 1e-3)
        assert outcome.delivered
        assert outcome.retries == 0
        assert outcome.attempts[0].fault == KIND_STALL
        assert outcome.ready_s == pytest.approx(2e-3)
        pool.synchronize(outcome.lease)
        pool.assert_drained()

    def test_long_stall_times_out_and_retries(self):
        # 8x stall vs 3x timeout: abandoned at the timeout, re-placed.
        plan = FaultPlan(
            stall_rate=1.0, stall_factor=8.0, seed=1
        )
        launcher, pool, clock = make_launcher(plan)
        outcome = launcher.launch("req", lambda spec: 1e-3)
        first = outcome.attempts[0]
        assert first.fault == KIND_TIMEOUT
        assert first.detect_s == pytest.approx(
            first.start_s + timeout_s(1e-3)
        )
        # The stalled kernel still occupied its stream to the full 8ms.
        assert pool.busy_seconds(first.device_id) >= 8e-3
        if outcome.delivered:
            pool.synchronize(outcome.lease)
        pool.assert_drained()

    def test_lost_result_detected_at_timeout(self, monkeypatch):
        # A single attempt: the chain ends at the first detection.
        monkeypatch.setattr(resilience, "MAX_RETRIES", 0)
        plan = FaultPlan(lost_result_rate=1.0)
        launcher, pool, _ = make_launcher(plan)
        outcome = launcher.launch("req", lambda spec: 1e-3)
        assert not outcome.delivered
        attempt = outcome.attempts[0]
        assert attempt.fault == KIND_LOST_RESULT
        assert attempt.detect_s == pytest.approx(
            attempt.start_s + timeout_s(1e-3)
        )
        pool.assert_drained()

    def test_repeated_failures_quarantine_the_device(self):
        plan = FaultPlan(outages=(DeviceOutage(0, 0.0, 10.0),))
        launcher, pool, _ = make_launcher(plan)
        for _ in range(QUARANTINE_AFTER):
            outcome = launcher.launch("req", lambda spec: 1e-4)
            pool.synchronize(outcome.lease)
        assert pool.is_quarantined(0)
        # Placement now avoids device 0 outright: no more attempts hit
        # the dead device, so no retries are needed.
        before = launcher.retries
        outcome = launcher.launch("req", lambda spec: 1e-4)
        assert launcher.retries == before
        assert outcome.attempts[0].device_id == 1
        pool.synchronize(outcome.lease)
        pool.assert_drained()

    def test_no_injector_is_pure_passthrough(self):
        launcher, pool, _ = make_launcher(None)
        plain_pool = DevicePool((TESLA_C2050,) * 2, Clock(), Tracer())
        for i in range(6):
            outcome = launcher.launch(f"r{i}", lambda spec: 1e-3)
            plain = plain_pool.launch(f"r{i}", 1e-3)
            assert outcome.lease.device_id == plain.device_id
            assert outcome.lease.start_s == plain.start_s
            assert outcome.lease.end_s == plain.end_s


def _request(rid="r0", engine="root:2", deadline=None, **kwargs):
    return SearchRequest(
        request_id=rid,
        game="tictactoe",
        engine=engine,
        budget_s=5e-4,
        seed=7,
        deadline_s=deadline,
        **kwargs,
    )


class TestServiceUnderFaults:
    def test_outage_survived_by_replacement(self):
        service = SearchService(
            n_devices=2,
            seed=0,
            faults=FaultPlan(outages=(DeviceOutage(0, 0.0, 10.0),)),
        )
        service.submit(_request())
        records = service.run()
        assert records[0].status == "completed"
        report = service.report()
        assert report.faults_injected.get(KIND_OUTAGE, 0) > 0
        assert report.completion_rate == 1.0

    def test_direct_engine_survives_retry_exhaustion_degraded(self):
        # Every device down forever: the block engine's modelled
        # execution can never be placed, but the computed result is
        # salvaged and the request completes degraded.
        service = SearchService(
            n_devices=2,
            seed=0,
            faults=FaultPlan(
                outages=(
                    DeviceOutage(0, 0.0, 100.0),
                    DeviceOutage(1, 0.0, 100.0),
                )
            ),
        )
        service.submit(_request(engine="block:2x32"))
        records = service.run()
        assert records[0].status == "completed"
        assert records[0].degraded
        assert records[0].result is not None
        report = service.report()
        assert report.degraded == 1
        assert report.lost_launches >= 1

    def test_mpi_drop_counted_in_multigpu_extras(self):
        service = SearchService(
            n_devices=2,
            seed=0,
            faults=FaultPlan(mpi_drop_rate=1.0, seed=3),
        )
        service.submit(_request(engine="multigpu:2x2x16"))
        records = service.run()
        assert records[0].status == "completed"
        extras = records[0].result.extras
        # Both reductions (visits, wins) drop the non-root rank.
        assert extras["mpi.dropped_messages"] == 2
        assert service.report().faults_injected[KIND_MPI_DROP] == 2

    def test_metrics_row_rendering_under_faults(self):
        service = SearchService(
            n_devices=2,
            seed=0,
            faults="launch=0.5,seed=13",
        )
        service.submit(_request())
        service.run()
        rendered = service.report().render()
        assert "launch retries" in rendered
        assert "faults: launch_fail" in rendered

    def test_fault_spans_visible_in_trace(self):
        tracer = Tracer()
        service = SearchService(
            n_devices=2,
            seed=0,
            tracer=tracer,
            faults=FaultPlan(outages=(DeviceOutage(0, 0.0, 10.0),)),
        )
        service.submit(_request())
        service.run()
        fault_spans = [
            e for e in tracer.events if "!" in e.name
        ]
        assert fault_spans
        assert all(
            e.args.get("fault") == KIND_OUTAGE for e in fault_spans
        )

    def test_deadline_miss_under_faults_resolves_leases(self):
        # A missed direct-path request must abandon its lease: run()
        # asserts the pool drained, so surviving run() is the test.
        service = SearchService(
            n_devices=1,
            seed=0,
            # A 2x stall is absorbed inside the 3x launch timeout and
            # delivers past the deadline.
            faults="stall=1.0x2,seed=5",
        )
        service.submit(_request(engine="block:2x32", deadline=1e-5))
        records = service.run()
        assert records[0].status == "missed"

    def test_injection_deterministic_across_service_runs(self):
        def run():
            service = SearchService(
                n_devices=2,
                seed=0,
                faults="launch=0.2,lost=0.1,stall=0.1x8,seed=21",
            )
            for i in range(4):
                service.submit(
                    _request(rid=f"r{i}", engine="root:2")
                )
            service.run()
            report = service.report()
            return (
                report,
                [r.lost_lanes for r in service.records],
                service.launcher.failed_attempts,
            )

        assert run() == run()
