"""Open-loop traces, the degradation ladder, hysteresis, shedding.

The overload-survival layer (docs/overload.md): seeded arrival
traces must be pure functions of their config, the ladder must never
touch interactive work, shedding must leave the device pool drained
(including mid-tick on the fused path), and every request must end
in an explicit terminal outcome.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.serve import (
    COMPLETED,
    PRIORITY_CLASSES,
    SHED,
    TERMINAL_STATUSES,
    FlashCrowd,
    HysteresisController,
    OverloadPolicy,
    SearchService,
    StormConfig,
    TraceConfig,
    WorkloadConfig,
    assert_explicit_outcomes,
    make_trace,
    run_storm,
)
from repro.serve import overload
from repro.serve.overload import ESCALATE_AFTER, N_TENANTS, _mix_cdf
from repro.serve.storm import SilentOutcomeError


def small_trace(**overrides) -> TraceConfig:
    """A trace small enough to storm in well under a second."""
    defaults = dict(
        base_rate=150.0,
        horizon_s=0.2,
        seed=42,
        components=(FlashCrowd(0.05, 0.1, 3.0),),
        class_deadline_s=(
            ("interactive", 0.05),
            ("standard", 0.2),
            ("batch", 0.5),
        ),
        workload=WorkloadConfig(
            seed=42, engines=("sequential",), budget_scale=0.25
        ),
    )
    defaults.update(overrides)
    return TraceConfig(**defaults)


# -- the trace generator -----------------------------------------------------


class TestTrace:
    def test_same_seed_same_trace_bit_identically(self):
        cfg = small_trace()
        first = make_trace(cfg)
        again = make_trace(cfg)
        assert [
            (r.request_id, r.arrival_s, r.priority, r.deadline_s,
             r.game, r.engine, r.budget_s, r.seed)
            for r in first
        ] == [
            (r.request_id, r.arrival_s, r.priority, r.deadline_s,
             r.game, r.engine, r.budget_s, r.seed)
            for r in again
        ]

    def test_different_seed_different_arrivals(self):
        a = make_trace(small_trace(seed=1))
        b = make_trace(small_trace(seed=2))
        assert [r.arrival_s for r in a] != [r.arrival_s for r in b]

    def test_arrivals_open_loop_and_in_horizon(self):
        cfg = small_trace()
        trace = make_trace(cfg)
        assert trace, "empty trace at 150 req/s over 0.2s"
        times = [r.arrival_s for r in trace]
        assert times == sorted(times)
        assert all(0.0 <= t < cfg.horizon_s for t in times)
        # Strictly increasing: no two arrivals share an instant.
        assert len(set(times)) == len(times)

    def test_request_fields_follow_the_config(self):
        cfg = small_trace()
        deadlines = dict(cfg.class_deadline_s)
        trace = make_trace(cfg)
        assert {r.priority for r in trace} <= set(PRIORITY_CLASSES)
        for r in trace:
            assert r.deadline_s == deadlines[r.priority]
            assert r.request_id.startswith("t")
            tenant = int(r.request_id[1:3])
            assert 0 <= tenant < N_TENANTS
        # Seeds differ per request (independent searches).
        seeds = [r.seed for r in trace]
        assert len(set(seeds)) == len(seeds)

    def test_flash_crowd_concentrates_arrivals(self):
        cfg = small_trace(
            base_rate=300.0,
            components=(FlashCrowd(0.05, 0.1, 5.0),),
        )
        trace = make_trace(cfg)
        inside = sum(
            1 for r in trace if 0.05 <= r.arrival_s < 0.15
        )
        # The window is half the horizon but 5x the rate: it must
        # hold well over half the arrivals.
        assert inside > len(trace) * 0.6

    def test_composes_with_position_skew(self):
        # The trace reuses WorkloadConfig's position machinery, so
        # Zipf-duplicate traffic composes with storms.
        cfg = small_trace(
            workload=WorkloadConfig(
                seed=42,
                engines=("sequential",),
                games=("tictactoe",),
                budget_scale=0.25,
                position_skew=1.2,
                position_pool=4,
            )
        )
        trace = make_trace(cfg)
        states = [str(r.state) for r in trace]
        assert len(set(states)) <= 4

    def test_trace_past_the_cap_is_refused(self, monkeypatch):
        cfg = small_trace()
        n = len(make_trace(cfg))
        # Exactly at the cap the trace is whole...
        monkeypatch.setattr(overload, "MAX_REQUESTS", n)
        assert len(make_trace(cfg)) == n
        # ...one arrival past it, it is refused rather than cut short.
        monkeypatch.setattr(overload, "MAX_REQUESTS", n - 1)
        with pytest.raises(
            ValueError, match=r"base rate 150\.0/s .* 0\.2 s horizon"
        ):
            make_trace(cfg)

    def test_validation(self):
        with pytest.raises(ValueError):
            small_trace(base_rate=0.0)
        with pytest.raises(ValueError):
            small_trace(horizon_s=-1.0)
        with pytest.raises(ValueError):
            small_trace(class_deadline_s=(("batch", 0.0),))
        with pytest.raises(ValueError):
            FlashCrowd(0.0, 0.0, 2.0)


class TestTraceProperties:
    """Hypothesis properties of trace composition."""

    @given(
        base_rate=st.floats(1.0, 1e4),
        first=st.floats(0.01, 100.0),
        multiplier=st.floats(0.01, 100.0),
        t=st.floats(0.0, 10.0),
    )
    def test_intensity_positive_and_under_envelope(
        self, base_rate, first, multiplier, t
    ):
        cfg = TraceConfig(
            base_rate=base_rate,
            components=(
                FlashCrowd(0.0, 0.4, first),
                FlashCrowd(0.2, 0.3, multiplier),
            ),
        )
        assert cfg.intensity(t) > 0
        assert cfg.intensity(t) <= cfg.peak_rate() * (1 + 1e-9)

    @given(
        multipliers=st.lists(
            st.floats(0.1, 10.0), min_size=0, max_size=4
        ),
        t=st.floats(0.0, 1.0),
    )
    def test_components_compose_multiplicatively(
        self, multipliers, t
    ):
        components = tuple(
            FlashCrowd(0.0, 2.0, m) for m in multipliers
        )
        cfg = TraceConfig(base_rate=100.0, components=components)
        expected = 100.0
        for component in components:
            expected *= component.factor(t)
        assert cfg.intensity(t) == pytest.approx(expected)

    @given(
        weights=st.lists(
            st.floats(0.01, 10.0), min_size=1, max_size=3
        )
    )
    def test_mix_cdf_is_monotone_and_ends_at_one(self, weights):
        mix = tuple(
            (PRIORITY_CLASSES[i], w) for i, w in enumerate(weights)
        )
        names, cdf = _mix_cdf(mix)
        assert names == [name for name, _ in mix]
        assert all(b >= a for a, b in zip(cdf, cdf[1:]))
        assert cdf[-1] == pytest.approx(1.0)

    @settings(max_examples=5, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_any_seed_replays_identically(self, seed):
        cfg = small_trace(
            seed=seed, base_rate=80.0, horizon_s=0.1, components=()
        )
        assert [
            (r.request_id, r.arrival_s) for r in make_trace(cfg)
        ] == [
            (r.request_id, r.arrival_s) for r in make_trace(cfg)
        ]


# -- the degradation ladder --------------------------------------------------


class TestLadder:
    def test_rungs_never_touch_interactive(self):
        policy = OverloadPolicy()
        for level in range(5):
            assert (
                policy.budget_scale_for(level, "interactive") == 1.0
            )
            assert (
                policy.spec_for(level, "interactive", "root:8")
                == "root:8"
            )
            assert (
                policy.degrade_level_for(level, "interactive") == 0
            )
            assert not policy.sheds(level, "interactive")

    def test_rung_table_for_lower_classes(self):
        policy = OverloadPolicy()
        for priority in ("standard", "batch"):
            assert policy.budget_scale_for(0, priority) == 1.0
            assert policy.budget_scale_for(1, priority) == 0.5
            assert (
                policy.spec_for(1, priority, "root:8") == "root:8"
            )
            assert (
                policy.spec_for(2, priority, "root:8")
                == "sequential"
            )
            assert policy.degrade_level_for(4, priority) == 2
        assert not policy.sheds(2, "batch")
        assert policy.sheds(3, "batch")
        assert not policy.sheds(3, "standard")
        assert policy.sheds(4, "standard")
        assert policy.sheds(4, "batch")

    def test_coerce_and_validation(self):
        assert OverloadPolicy.coerce(None) is None
        assert OverloadPolicy.coerce(False) is None
        assert OverloadPolicy.coerce(True) == OverloadPolicy()
        assert (
            OverloadPolicy.coerce({"max_level": 2}).max_level == 2
        )
        policy = OverloadPolicy()
        assert OverloadPolicy.coerce(policy) is policy
        with pytest.raises(TypeError):
            OverloadPolicy.coerce("defended")
        with pytest.raises(ValueError):
            OverloadPolicy(deescalate_after=0)
        with pytest.raises(ValueError):
            OverloadPolicy(max_level=0)


class TestHysteresis:
    def test_escalates_on_streak_not_on_spike(self):
        controller = HysteresisController(
            OverloadPolicy(deescalate_after=2)
        )
        assert ESCALATE_AFTER > 1
        for _ in range(ESCALATE_AFTER - 1):
            assert controller.observe(2.0) == 0
        # A calm sample resets the streak: no escalation.
        assert controller.observe(0.0) == 0
        for _ in range(ESCALATE_AFTER - 1):
            assert controller.observe(2.0) == 0
        assert controller.observe(2.0) == 1
        assert controller.escalations == 1
        assert controller.peak_level == 1

    def test_deescalates_slowly_and_only_when_calm(self):
        policy = OverloadPolicy(deescalate_after=3, release=0.4)
        controller = HysteresisController(policy)
        for _ in range(ESCALATE_AFTER):
            controller.observe(2.0)
        assert controller.level == 1
        # Mid-band pressure (between release and 1.0) holds level.
        for _ in range(10):
            assert controller.observe(0.7) == 1
        assert controller.observe(0.1) == 1
        assert controller.observe(0.1) == 1
        assert controller.observe(0.1) == 0
        assert controller.deescalations == 1

    def test_level_capped_at_max(self):
        controller = HysteresisController(OverloadPolicy(max_level=2))
        for _ in range(10):
            controller.observe(5.0)
        assert controller.level == 2
        assert controller.peak_level == 2


class TestHysteresisProperties:
    """Property tests for the controller's boundary behaviour: any
    pressure history keeps the level in range, moves it one rung at
    a time, and never lets the mid-band (release < p < 1.0) change
    it -- the no-chatter guarantee hysteresis exists for."""

    @settings(max_examples=100, deadline=None)
    @given(
        pressures=st.lists(
            st.floats(min_value=0.0, max_value=4.0),
            min_size=1,
            max_size=100,
        ),
        deescalate_after=st.integers(min_value=1, max_value=8),
        max_level=st.integers(min_value=1, max_value=4),
    )
    def test_level_bounded_and_moves_one_rung_at_a_time(
        self, pressures, deescalate_after, max_level
    ):
        controller = HysteresisController(
            OverloadPolicy(
                deescalate_after=deescalate_after,
                max_level=max_level,
            )
        )
        previous = controller.level
        for pressure in pressures:
            level = controller.observe(pressure)
            assert 0 <= level <= max_level
            assert abs(level - previous) <= 1
            previous = level
        assert controller.peak_level <= max_level
        assert controller.escalations >= controller.peak_level

    @settings(max_examples=100, deadline=None)
    @given(
        pressures=st.lists(
            st.floats(
                min_value=0.41,
                max_value=0.99,
                exclude_min=True,
            ),
            min_size=1,
            max_size=50,
        ),
        start_high=st.integers(min_value=0, max_value=5),
    )
    def test_mid_band_pressure_never_moves_the_level(
        self, pressures, start_high
    ):
        policy = OverloadPolicy(deescalate_after=1, release=0.4)
        controller = HysteresisController(policy)
        for _ in range(start_high):
            controller.observe(2.0)
        level = controller.level
        for pressure in pressures:
            assert controller.observe(pressure) == level

    @settings(max_examples=100, deadline=None)
    @given(
        threshold=st.sampled_from([0.4, 1.0]),
        n=st.integers(min_value=1, max_value=20),
    )
    def test_exact_thresholds_are_inclusive(self, threshold, n):
        """Pressure exactly at 1.0 escalates; exactly at release
        de-escalates -- the boundaries belong to the active side, so
        a plateau sitting on one cannot oscillate."""
        policy = OverloadPolicy(deescalate_after=1, release=0.4)
        controller = HysteresisController(policy)
        if threshold == 1.0:
            for i in range(n):
                assert controller.observe(1.0) == min(
                    (i + 1) // ESCALATE_AFTER, policy.max_level
                )
        else:
            for _ in range(ESCALATE_AFTER):
                controller.observe(2.0)
            assert controller.level == 1
            controller.observe(0.4)
            assert controller.level == 0
            # Further release-boundary samples stay at the floor.
            for _ in range(n):
                assert controller.observe(0.4) == 0

    @settings(max_examples=50, deadline=None)
    @given(
        pressures=st.lists(
            st.floats(min_value=0.0, max_value=4.0),
            min_size=1,
            max_size=60,
        )
    )
    def test_replay_is_deterministic(self, pressures):
        def drive():
            controller = HysteresisController(OverloadPolicy())
            return [controller.observe(p) for p in pressures]

        assert drive() == drive()


# -- shedding and lease accounting -------------------------------------------


def trace_requests(**overrides):
    return make_trace(small_trace(**overrides))


class TestShedding:
    def test_admission_sheds_lower_classes_at_high_level(self):
        service = SearchService(
            n_devices=1,
            max_active=4,
            # A de-escalation streak long enough to never fire keeps
            # the ladder pinned for the whole run.
            overload={"deescalate_after": 10**6},
        )
        # Pin the ladder at its top before any arrival.
        service.controller.level = 4
        service.submit_all(trace_requests())
        records = service.run()
        assert_explicit_outcomes(records)
        by_class = {}
        for r in records:
            by_class.setdefault(r.request.priority, []).append(r)
        assert all(
            r.status == SHED for r in by_class["standard"]
        )
        assert all(r.status == SHED for r in by_class["batch"])
        assert all(
            r.status != SHED for r in by_class["interactive"]
        )
        service.pool.assert_drained()

    def test_overloaded_storm_pool_drains_fused(self):
        # Shedding after admission -- including requests cancelled
        # between queueing and launch -- must resolve every lease.
        service = SearchService(
            n_devices=1,
            max_active=4,
            max_queue=8,
            overload=True,
            fusion=True,
        )
        service.submit_all(
            trace_requests(base_rate=400.0, horizon_s=0.15)
        )
        records = service.run()
        assert_explicit_outcomes(records)
        assert any(r.status == SHED for r in records)
        service.pool.assert_drained()
        assert service.report().shed > 0

    def test_full_queue_evicts_lower_class_for_higher(self, monkeypatch):
        # Eviction is admission-path logic, independent of the ladder
        # level: an escalation streak too long to ever complete keeps
        # the controller at level 0 so the shed pass never interferes.
        monkeypatch.setattr(overload, "ESCALATE_AFTER", 10**6)
        service = SearchService(
            n_devices=1,
            max_active=1,
            max_queue=1,
            overload=True,
            enforce_deadlines=False,
        )
        from repro.serve import SearchRequest

        def req(i, priority, arrival):
            return SearchRequest(
                request_id=f"e{i}",
                game="tictactoe",
                engine="sequential",
                budget_s=0.002,
                seed=i,
                priority=priority,
                arrival_s=arrival,
            )

        # e0 occupies the slot; e1 (batch) queues; e2 (interactive)
        # finds the queue full and evicts e1 rather than bouncing.
        service.submit_all(
            [
                req(0, "standard", 0.0),
                req(1, "batch", 1e-5),
                req(2, "interactive", 2e-5),
            ]
        )
        records = {
            r.request.request_id: r for r in service.run()
        }
        assert records["e1"].status == SHED
        assert records["e2"].status == COMPLETED
        assert records["e0"].status == COMPLETED
        service.pool.assert_drained()

    def test_undefended_service_never_sheds(self):
        service = SearchService(
            n_devices=1, max_active=4, max_queue=8
        )
        service.submit_all(
            trace_requests(base_rate=400.0, horizon_s=0.15)
        )
        records = service.run()
        assert all(r.status != SHED for r in records)
        report = service.report()
        assert report.shed == 0
        assert report.peak_overload_level == 0
        service.pool.assert_drained()


# -- storm-level invariants --------------------------------------------------


class TestStormHarness:
    def test_storm_replays_bit_identically(self):
        cfg = StormConfig(
            trace=small_trace(),
            n_devices=1,
            max_active=4,
            overload=True,
        )

        def fingerprint(outcome):
            return [
                (
                    r.request.request_id,
                    r.status,
                    r.outcome,
                    r.latency_s,
                    None if r.result is None else r.result.move,
                )
                for r in outcome.records
            ]

        assert fingerprint(run_storm(cfg)) == fingerprint(
            run_storm(cfg)
        )

    def test_every_outcome_is_explicit_and_counted(self):
        outcome = run_storm(
            StormConfig(
                trace=small_trace(base_rate=300.0),
                n_devices=1,
                max_active=4,
                overload=True,
            )
        )
        assert len(outcome.records) == len(outcome.requests)
        assert all(
            r.status in TERMINAL_STATUSES for r in outcome.records
        )
        total = sum(
            s.met + s.degraded + s.shed + s.rejected + s.missed
            for s in outcome.per_class.values()
        )
        assert total == len(outcome.requests)

    def test_silent_outcome_raises(self):
        from repro.serve import RequestRecord

        trace = trace_requests()
        record = RequestRecord(request=trace[0])
        record.status = "running"
        with pytest.raises(SilentOutcomeError):
            assert_explicit_outcomes([record])
