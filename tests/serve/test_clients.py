"""Closed-loop clients: retries, breakers, throttles, budgets, traps.

The client layer (repro.serve.clients) closes the feedback loop the
open-loop storms left open: every SHED / REJECTED / MISSED outcome
may come back as a retry, and the defenses -- per-client circuit
breakers, adaptive throttling, the server-side retry budget -- are
what keep that loop from locking the service into a metastable
state.  Everything is seeded; storms must replay bit-identically.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.serve import (
    COMPLETED,
    MISSED,
    REJECTED,
    SHED,
    BreakerConfig,
    CircuitBreaker,
    ClientConfig,
    ClientPopulation,
    ClientRetryPolicy,
    FlashCrowd,
    MetastabilityDetector,
    RequestRecord,
    RetryBudget,
    SearchRequest,
    StormConfig,
    ThrottleConfig,
    TraceConfig,
    WorkloadConfig,
    attempt_of,
    class_summary,
    lineage_root,
    post_crowd_attainment,
    retry_id,
    run_storm,
    tenant_of,
)
from repro.serve.clients import (
    BREAKER_CLOSED,
    BREAKER_HALF_OPEN,
    BREAKER_OPEN,
    AdaptiveThrottle,
    client_uniform,
)


def request(
    rid: str = "t03-r0",
    priority: str = "standard",
    arrival_s: float = 0.0,
    deadline_s: float | None = 0.1,
) -> SearchRequest:
    return SearchRequest(
        request_id=rid,
        game="reversi",
        engine="sequential",
        budget_s=0.001,
        seed=7,
        arrival_s=arrival_s,
        deadline_s=deadline_s,
        priority=priority,
    )


def record(status: str, **kwargs) -> RequestRecord:
    return RequestRecord(request=request(**kwargs), status=status)


# -- attempt lineage on request ids ------------------------------------------


class TestLineage:
    def test_roundtrip(self):
        assert lineage_root("t03-mix0042") == "t03-mix0042"
        assert lineage_root("t03-mix0042~a2") == "t03-mix0042"
        assert attempt_of("t03-mix0042") == 0
        assert attempt_of("t03-mix0042~a2") == 2
        assert retry_id("t03-mix0042", 1) == "t03-mix0042~a1"
        # Retrying a retry keeps one flat lineage, never ~a1~a2.
        assert retry_id("t03-mix0042~a1", 2) == "t03-mix0042~a2"

    def test_retry_id_rejects_attempt_zero(self):
        with pytest.raises(ValueError):
            retry_id("x", 0)

    def test_non_lineage_ids_pass_through(self):
        assert lineage_root("plain~alpha") == "plain~alpha"
        assert attempt_of("plain~alpha") == 0

    def test_tenant_of(self):
        assert tenant_of("t03-mix0042") == "t03"
        assert tenant_of("t128-x~a4") == "t128"
        assert tenant_of("req-17") is None
        assert tenant_of("tx-17") is None


# -- the retry policy --------------------------------------------------------


class TestClientRetryPolicy:
    def test_validation(self):
        with pytest.raises(ValueError):
            ClientRetryPolicy(kind="quadratic")
        with pytest.raises(ValueError):
            ClientRetryPolicy(base_s=-0.1)
        with pytest.raises(ValueError):
            ClientRetryPolicy(jitter=1.0)
        with pytest.raises(ValueError):
            ClientRetryPolicy(max_attempts=0)
        with pytest.raises(ValueError):
            ClientRetryPolicy(give_up_s=(("batch", 0.0),))

    def test_coerce_forms(self):
        assert ClientRetryPolicy.coerce(None) is None
        assert ClientRetryPolicy.coerce("fixed").kind == "fixed"
        assert (
            ClientRetryPolicy.coerce({"kind": "immediate"}).kind
            == "immediate"
        )
        policy = ClientRetryPolicy()
        assert ClientRetryPolicy.coerce(policy) is policy
        with pytest.raises(TypeError):
            ClientRetryPolicy.coerce(42)

    def test_none_and_immediate_have_zero_backoff(self):
        for kind in ("none", "immediate"):
            policy = ClientRetryPolicy(kind=kind, jitter=0.0)
            assert policy.backoff_s(0, "r", 1) == 0.0
            assert policy.backoff_s(0, "r", 3) == 0.0

    def test_fixed_backoff_is_base(self):
        policy = ClientRetryPolicy(
            kind="fixed", base_s=0.03, jitter=0.0
        )
        assert policy.backoff_s(0, "r", 1) == pytest.approx(0.03)
        assert policy.backoff_s(0, "r", 5) == pytest.approx(0.03)

    def test_exponential_doubles_then_caps(self):
        policy = ClientRetryPolicy(
            kind="exponential",
            base_s=0.01,
            cap_s=0.05,
            jitter=0.0,
        )
        delays = [policy.backoff_s(0, "r", a) for a in (1, 2, 3, 4)]
        assert delays == pytest.approx([0.01, 0.02, 0.04, 0.05])

    def test_backoff_rejects_attempt_zero(self):
        with pytest.raises(ValueError):
            ClientRetryPolicy().backoff_s(0, "r", 0)

    def test_give_up_for(self):
        policy = ClientRetryPolicy(give_up_s=(("batch", 2.0),))
        assert policy.give_up_for("batch") == 2.0
        assert policy.give_up_for("interactive") is None

    @settings(max_examples=50, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**32),
        attempt=st.integers(min_value=1, max_value=12),
        root=st.text(min_size=1, max_size=8),
        jitter=st.floats(min_value=0.0, max_value=0.9),
    )
    def test_jitter_is_deterministic_and_bounded(
        self, seed, attempt, root, jitter
    ):
        """Backoff is a pure function of (seed, lineage, attempt) and
        jitter stays inside its advertised envelope -- the property
        that makes retry storms replay bit-identically."""
        policy = ClientRetryPolicy(
            kind="exponential",
            base_s=0.01,
            cap_s=0.16,
            jitter=jitter,
        )
        once = policy.backoff_s(seed, root, attempt)
        again = policy.backoff_s(seed, root, attempt)
        assert once == again
        nominal = min(0.16, 0.01 * 2.0 ** (attempt - 1))
        assert nominal * (1 - jitter) <= once <= nominal * (1 + jitter)

    @settings(max_examples=30, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**32),
        path=st.lists(
            st.text(min_size=1, max_size=6), min_size=1, max_size=3
        ),
    )
    def test_client_uniform_in_unit_interval(self, seed, path):
        u = client_uniform(seed, *path)
        assert 0.0 < u < 1.0
        assert u == client_uniform(seed, *path)


# -- the circuit breaker -----------------------------------------------------


class TestCircuitBreaker:
    def make(self, **kwargs) -> CircuitBreaker:
        defaults = dict(
            failure_threshold=3,
            reset_timeout_s=0.1,
        )
        defaults.update(kwargs)
        return CircuitBreaker(BreakerConfig(**defaults))

    def test_validation(self):
        with pytest.raises(ValueError):
            BreakerConfig(failure_threshold=0)
        with pytest.raises(ValueError):
            BreakerConfig(reset_timeout_s=0.0)

    def test_trips_on_consecutive_failures_only(self):
        breaker = self.make()
        breaker.on_failure(0.0)
        breaker.on_failure(0.0)
        breaker.on_success(0.0)  # resets the streak
        breaker.on_failure(0.0)
        breaker.on_failure(0.0)
        assert breaker.state == BREAKER_CLOSED
        breaker.on_failure(0.0)
        assert breaker.state == BREAKER_OPEN
        assert breaker.opens == 1

    def test_open_blocks_until_dwell_then_half_opens(self):
        breaker = self.make()
        for _ in range(3):
            breaker.on_failure(0.0)
        assert not breaker.allow(0.05)
        assert breaker.state == BREAKER_OPEN
        assert breaker.allow(0.11)  # dwell elapsed: probe admitted
        assert breaker.state == BREAKER_HALF_OPEN
        assert not breaker.allow(0.12)  # only one probe

    def test_half_open_probe_success_closes(self):
        breaker = self.make()
        for _ in range(3):
            breaker.on_failure(0.0)
        assert breaker.allow(0.2)
        breaker.on_success(0.2)
        assert breaker.state == BREAKER_CLOSED
        assert breaker.closes == 1
        assert breaker.allow(0.2)

    def test_half_open_probe_failure_reopens(self):
        breaker = self.make()
        for _ in range(3):
            breaker.on_failure(0.0)
        assert breaker.allow(0.2)
        breaker.on_failure(0.2)
        assert breaker.state == BREAKER_OPEN
        assert breaker.opens == 2
        assert not breaker.allow(0.25)
        assert breaker.allow(0.31)  # new dwell from the re-open


# -- the adaptive throttle ---------------------------------------------------


class TestAdaptiveThrottle:
    def test_validation(self):
        with pytest.raises(ValueError):
            ThrottleConfig(k=0.0)
        with pytest.raises(ValueError):
            ThrottleConfig(window=0)

    def test_healthy_server_never_throttled(self):
        throttle = AdaptiveThrottle(ThrottleConfig(k=2.0, window=8))
        assert throttle.reject_probability() == 0.0
        for _ in range(8):
            throttle.observe(True)
        assert throttle.reject_probability() == 0.0

    def test_rejection_probability_rises_with_pushback(self):
        throttle = AdaptiveThrottle(ThrottleConfig(k=2.0, window=16))
        for _ in range(16):
            throttle.observe(False)
        assert throttle.reject_probability() == pytest.approx(
            16 / 17
        )

    def test_window_forgets_old_outcomes(self):
        throttle = AdaptiveThrottle(ThrottleConfig(k=2.0, window=4))
        for _ in range(10):
            throttle.observe(False)
        for _ in range(4):
            throttle.observe(True)
        assert throttle.reject_probability() == 0.0


# -- the server-side retry budget --------------------------------------------


class TestRetryBudget:
    def test_validation(self):
        with pytest.raises(ValueError):
            RetryBudget(fill_per_first_try=-0.1)
        with pytest.raises(ValueError):
            RetryBudget(cap=0.0)
        with pytest.raises(ValueError):
            RetryBudget(initial=-1.0)

    def test_spend_needs_a_whole_token(self):
        budget = RetryBudget(
            fill_per_first_try=0.5, cap=5.0, initial=0.0
        )
        assert not budget.spend()
        budget.on_first_try()
        assert not budget.spend()  # 0.5 tokens
        budget.on_first_try()
        assert budget.spend()  # 1.0 -> 0.0
        assert budget.granted == 1
        assert budget.rejected == 2

    def test_fill_caps(self):
        budget = RetryBudget(
            fill_per_first_try=1.0, cap=2.0, initial=2.0
        )
        for _ in range(10):
            budget.on_first_try()
        assert budget.tokens == 2.0

    def test_sustained_retry_rate_capped_by_fill(self):
        """Long-run: admitted retries per first-try converge to the
        fill rate -- the property that breaks the storm feedback."""
        budget = RetryBudget(
            fill_per_first_try=0.2, cap=10.0, initial=0.0
        )
        granted = 0
        for _ in range(1000):
            budget.on_first_try()
            if budget.spend():
                granted += 1
        assert granted == pytest.approx(200, abs=10)

    def test_coerce(self):
        assert RetryBudget.coerce(None) is None
        assert RetryBudget.coerce(False) is None
        assert isinstance(RetryBudget.coerce(True), RetryBudget)
        assert RetryBudget.coerce({"cap": 3.0}).cap == 3.0
        budget = RetryBudget()
        assert RetryBudget.coerce(budget) is budget


# -- the population's feedback seam ------------------------------------------


def population(**overrides) -> ClientPopulation:
    config = dict(
        retry=dict(
            kind="fixed",
            base_s=0.01,
            jitter=0.0,
            max_attempts=3,
            give_up_s=(("standard", 1.0),),
        ),
        seed=5,
    )
    config.update(overrides)
    return ClientPopulation.coerce(config)


class TestClientPopulation:
    def test_completion_never_retries(self):
        clients = population()
        assert clients.on_outcome(record(COMPLETED), 0.01) is None
        assert clients.successes == 1
        assert clients.retries_scheduled == 0

    def test_failure_schedules_backoffd_retry(self):
        clients = population()
        retry = clients.on_outcome(record(SHED), 0.02)
        assert retry is not None
        assert retry.request_id == "t03-r0~a1"
        assert retry.arrival_s == pytest.approx(0.03)
        assert retry.seed != request().seed
        # The retried attempt keeps class, game, engine and deadline.
        assert retry.priority == "standard"
        assert retry.deadline_s == request().deadline_s
        assert clients.retries_scheduled == 1

    def test_attempt_cap_exhausts_lineage(self):
        clients = population()
        rec = record(REJECTED, rid="t03-r0~a2")
        assert clients.on_outcome(rec, 0.1) is None
        assert clients.exhausted_attempts == 1

    def test_give_up_patience_from_first_arrival(self):
        clients = population()
        # First failure at t=0.995: the retry would land past the
        # 1.0s patience measured from the lineage's first arrival.
        rec = record(MISSED, arrival_s=0.0)
        assert clients.on_outcome(rec, 0.995) is None
        assert clients.gave_up == 1

    def test_retry_kind_none_disables_feedback(self):
        clients = population(retry=dict(kind="none"))
        assert clients.on_outcome(record(SHED), 0.0) is None
        assert clients.failures == 1
        assert clients.retries_scheduled == 0

    def test_breaker_gates_retries_per_tenant(self):
        clients = population(
            breaker=dict(failure_threshold=2, reset_timeout_s=0.5)
        )
        assert clients.on_outcome(record(SHED), 0.0) is not None
        # Second consecutive failure trips tenant t03's breaker; the
        # retry it would have scheduled is suppressed.
        assert clients.on_outcome(record(SHED), 0.01) is None
        assert clients.suppressed_breaker == 1
        assert clients.breaker_opens == 1
        assert clients.open_breakers() == 1
        # A different tenant's breaker is untouched.
        other = record(SHED, rid="t04-r0")
        assert clients.on_outcome(other, 0.01) is not None

    def test_throttle_suppresses_under_sustained_pushback(self):
        clients = population(throttle=dict(k=2.0, window=8))
        suppressed = 0
        for i in range(8):
            rec = record(REJECTED, rid=f"t03-r{i}")
            if clients.on_outcome(rec, 0.01 * i) is None:
                suppressed += 1
        assert suppressed == clients.suppressed_throttle
        assert clients.suppressed_throttle > 0

    def test_feedback_is_deterministic(self):
        def drive():
            clients = population(throttle=dict(k=1.0, window=4))
            out = []
            for i in range(12):
                rec = record(REJECTED, rid=f"t03-r{i}")
                retry = clients.on_outcome(rec, 0.01 * i)
                out.append(
                    None if retry is None else retry.request_id
                )
            return out

        assert drive() == drive()

    def test_coerce_forms(self):
        assert ClientPopulation.coerce(None) is None
        assert ClientPopulation.coerce(False) is None
        assert isinstance(
            ClientPopulation.coerce(True), ClientPopulation
        )
        pop = population()
        assert ClientPopulation.coerce(pop) is pop
        config = ClientConfig()
        assert ClientPopulation.coerce(config).config is config


# -- the metastability detector ----------------------------------------------


def synthetic_records(
    goodput_per_bin: list[int],
    offered_per_bin: int = 5,
    clear_s: float = 0.0,
    bin_s: float = 0.05,
):
    """One record stream: ``offered_per_bin`` arrivals per bin, of
    which the first ``goodput_per_bin[b]`` complete instantly."""
    records = []
    for b, good in enumerate(goodput_per_bin):
        for i in range(offered_per_bin):
            t = clear_s + (b + 0.5) * bin_s
            req = request(
                rid=f"t00-b{b}i{i}", arrival_s=t, deadline_s=0.01
            )
            rec = RequestRecord(request=req)
            if i < good:
                rec.status = COMPLETED
                rec.start_s = t
                rec.finish_s = t + 0.001
            else:
                rec.status = SHED
            records.append(rec)
    return records


class TestMetastabilityDetector:
    def detector(self, **kwargs) -> MetastabilityDetector:
        defaults = dict(
            bin_s=0.05,
            settle_s=0.0,
            goodput_frac=0.5,
            min_offered_rate=40.0,
        )
        defaults.update(kwargs)
        return MetastabilityDetector(**defaults)

    def test_validation(self):
        with pytest.raises(ValueError):
            MetastabilityDetector(bin_s=0.0)
        with pytest.raises(ValueError):
            MetastabilityDetector(settle_s=-0.1)
        with pytest.raises(ValueError):
            MetastabilityDetector(goodput_frac=0.0)

    def test_sustained_low_goodput_is_a_trap(self):
        records = synthetic_records([5, 1, 1, 1, 5])
        verdict = self.detector().analyze(
            records, clear_s=0.0, horizon_s=0.25
        )
        assert verdict.trapped
        assert verdict.trapped_bins == 3
        assert verdict.offered == 25
        assert verdict.goodput == 13

    def test_short_dip_is_a_draining_backlog_not_a_trap(self):
        records = synthetic_records([5, 1, 1, 5, 5])
        verdict = self.detector().analyze(
            records, clear_s=0.0, horizon_s=0.25
        )
        assert not verdict.trapped
        assert verdict.trapped_bins == 2

    def test_idle_bins_are_not_trapped(self):
        # 1 arrival per bin is under min_offered_rate * bin_s = 2.
        records = synthetic_records(
            [0, 0, 0, 0], offered_per_bin=1
        )
        verdict = self.detector().analyze(
            records, clear_s=0.0, horizon_s=0.2
        )
        assert not verdict.trapped
        assert verdict.trapped_bins == 0

    def test_settle_grace_excludes_the_draining_crowd(self):
        # All the badness is inside the settle window.
        records = synthetic_records([0, 0, 0, 5, 5, 5])
        verdict = self.detector(settle_s=0.15).analyze(
            records, clear_s=0.0, horizon_s=0.3
        )
        assert not verdict.trapped
        assert verdict.window_start_s == pytest.approx(0.15)

    def test_empty_window_is_not_trapped(self):
        verdict = self.detector().analyze(
            [], clear_s=0.5, horizon_s=0.4
        )
        assert not verdict.trapped
        assert verdict.goodput_ratio == 1.0

    def test_coerce(self):
        assert MetastabilityDetector.coerce(None) is None
        assert isinstance(
            MetastabilityDetector.coerce(True), MetastabilityDetector
        )
        assert (
            MetastabilityDetector.coerce({"bin_s": 0.1}).bin_s == 0.1
        )


class TestPostCrowdAttainment:
    def test_counts_only_post_clear_arrivals_of_the_class(self):
        records = [
            record(COMPLETED, rid="t00-a", arrival_s=0.1,
                   priority="interactive"),
            record(COMPLETED, rid="t00-b", arrival_s=0.6,
                   priority="interactive"),
            record(SHED, rid="t00-c", arrival_s=0.7,
                   priority="interactive"),
            record(SHED, rid="t00-d", arrival_s=0.8,
                   priority="standard"),
        ]
        for rec in records:
            if rec.status == COMPLETED:
                rec.start_s = rec.request.arrival_s
                rec.finish_s = rec.request.arrival_s + 0.01
        assert post_crowd_attainment(records, 0.5) == pytest.approx(
            0.5
        )

    def test_degraded_completion_in_deadline_attains(self):
        # One predicate: the per-class table and the recovery gate
        # both count a degraded completion inside its deadline.
        rec = record(
            COMPLETED, rid="t00-a", arrival_s=0.6, priority="interactive"
        )
        rec.start_s = 0.6
        rec.finish_s = 0.61
        rec.degraded = True
        stats = class_summary([rec])["interactive"]
        assert (stats.degraded, stats.attainment) == (1, 1.0)
        assert post_crowd_attainment([rec], 0.5) == 1.0

    def test_no_post_crowd_work_is_vacuous_success(self):
        assert post_crowd_attainment([], 0.5) == 1.0


# -- the closed loop end to end ----------------------------------------------


def storm_config(**overrides) -> StormConfig:
    trace = TraceConfig(
        base_rate=120.0,
        horizon_s=0.25,
        seed=42,
        components=(FlashCrowd(0.05, 0.1, 5.0),),
        class_deadline_s=(
            ("interactive", 0.05),
            ("standard", 0.1),
            ("batch", 0.2),
        ),
        workload=WorkloadConfig(
            seed=42, engines=("sequential",), budget_scale=0.25
        ),
    )
    service = dict(
        n_devices=1,
        max_active=8,
        max_queue=8,
        seed=42,
        overload=None,
        clients=dict(
            retry=dict(
                kind="fixed",
                base_s=0.01,
                jitter=0.2,
                max_attempts=4,
                give_up_s=(),
            ),
            seed=42,
        ),
    )
    service.update(overrides)
    return StormConfig(trace=trace, service=service)


class TestClosedLoopStorm:
    def test_retries_join_the_offered_load(self):
        outcome = run_storm(storm_config())
        retries = [
            r
            for r in outcome.records
            if attempt_of(r.request.request_id) > 0
        ]
        assert retries
        assert len(outcome.records) == len(outcome.requests) + len(
            retries
        )
        assert outcome.report.retries_offered == len(retries)
        # Lineage ids stay unique.
        rids = [r.request.request_id for r in outcome.records]
        assert len(rids) == len(set(rids))

    def test_closed_loop_replays_bit_identically(self):
        def fingerprint(outcome):
            return [
                (
                    r.request.request_id,
                    r.request.arrival_s,
                    r.status,
                    r.finish_s,
                )
                for r in outcome.records
            ]

        assert fingerprint(run_storm(storm_config())) == fingerprint(
            run_storm(storm_config())
        )

    def test_open_loop_arrivals_unchanged_by_client_layer(self):
        """Adding clients never changes the trace itself -- only
        retries are added on top."""
        closed = run_storm(storm_config())
        open_loop = run_storm(storm_config(clients=None))
        assert [
            r.request_id for r in closed.requests
        ] == [r.request_id for r in open_loop.requests]
        first_tries = {
            r.request.request_id: r.request.arrival_s
            for r in closed.records
            if attempt_of(r.request.request_id) == 0
        }
        assert first_tries == {
            r.request.request_id: r.request.arrival_s
            for r in open_loop.records
        }

    def test_retry_budget_rejects_with_explicit_outcome(self):
        outcome = run_storm(
            storm_config(
                retry_budget=dict(
                    fill_per_first_try=0.0, cap=1.0, initial=0.0
                )
            )
        )
        budget_rejected = [
            r
            for r in outcome.records
            if r.extras.get("budget_rejected")
        ]
        assert budget_rejected
        assert all(
            r.status == REJECTED for r in budget_rejected
        )
        assert all(
            attempt_of(r.request.request_id) > 0
            for r in budget_rejected
        )
        assert outcome.report.budget_rejected == len(budget_rejected)
        # A zero-fill budget admits no retries at all.
        assert outcome.report.budget_granted == 0

    def test_budget_never_charges_first_tries(self):
        """Even a zero-token budget touches only retries: every
        first-try is admitted exactly as without one (the budget may
        still *help* first-tries by keeping retries out of their
        queue, so statuses are compared on the budget run itself)."""
        outcome = run_storm(
            storm_config(
                retry_budget=dict(
                    fill_per_first_try=0.0, cap=1.0, initial=0.0
                )
            )
        )
        free = run_storm(storm_config())
        assert (
            outcome.report.first_tries == free.report.first_tries
        )
        for rec in outcome.records:
            if attempt_of(rec.request.request_id) == 0:
                assert not rec.extras.get("budget_rejected")

    def test_defenses_reduce_retry_volume(self):
        undefended = run_storm(storm_config())
        defended = run_storm(
            storm_config(
                clients=dict(
                    retry=dict(
                        kind="fixed",
                        base_s=0.01,
                        jitter=0.2,
                        max_attempts=4,
                        give_up_s=(),
                    ),
                    breaker=dict(
                        failure_threshold=3, reset_timeout_s=0.1
                    ),
                    throttle=dict(k=1.5, window=32),
                    seed=42,
                ),
                retry_budget=dict(
                    fill_per_first_try=0.1, cap=4.0, initial=1.0
                ),
            )
        )
        assert (
            defended.report.retries_offered
            < undefended.report.retries_offered
        )
        assert (
            defended.report.client_suppressed_breaker
            + defended.report.client_suppressed_throttle
            > 0
        )

    def test_storm_config_crowd_clear(self):
        assert storm_config().crowd_clear_s() == pytest.approx(0.15)
        no_crowd = storm_config()
        trace = no_crowd.trace
        from dataclasses import replace

        assert (
            StormConfig(
                trace=replace(trace, components=())
            ).crowd_clear_s()
            == 0.0
        )
