"""Tests for the phase profiler (repro.util.profile)."""

from repro.util.profile import NULL_PROFILER, PhaseStats, Profiler


def test_phase_accumulates_calls_and_time():
    prof = Profiler()
    for _ in range(3):
        with prof.phase("select"):
            pass
    stats = prof.phases["select"]
    assert stats.calls == 3
    assert stats.total_s >= 0.0
    assert prof.total_s("select") == stats.total_s
    assert prof.total_s("never-entered") == 0.0


def test_mean_of_empty_phase_is_zero():
    assert PhaseStats("x").mean_s == 0.0


def test_counters_accumulate():
    prof = Profiler()
    prof.count("requests")
    prof.count("requests", 4)
    assert prof.counters["requests"] == 5


def test_disabled_profiler_records_nothing():
    prof = Profiler(enabled=False)
    with prof.phase("select"):
        pass
    prof.count("requests", 10)
    assert prof.phases == {}
    assert prof.counters == {}


def test_null_profiler_is_disabled_and_reuses_timer():
    assert not NULL_PROFILER.enabled
    assert NULL_PROFILER.phase("a") is NULL_PROFILER.phase("b")


def test_render_lists_phases_and_counters():
    prof = Profiler()
    with prof.phase("select"):
        pass
    prof.count("requests", 7)
    out = prof.render(title="t")
    assert "select" in out
    assert "#requests" in out
    assert "7" in out


def test_exceptions_still_recorded():
    prof = Profiler()
    try:
        with prof.phase("boom"):
            raise RuntimeError("x")
    except RuntimeError:
        pass
    assert prof.phases["boom"].calls == 1
