"""The calibrated operating points (``repro.serve.scenarios``) and the
one build -> run -> report (``repro.serve.serve``) every caller of
them goes through."""

from dataclasses import replace

import pytest

from repro.serve import (
    SearchService,
    ServiceCrash,
    make_trace,
    make_workload,
    run_storm,
    scenarios,
    serve,
)

CLOSED_ROWS = {
    "mixed": scenarios.mixed,
    "cluster_contended": scenarios.cluster_contended,
    "cluster_contended_skewed": lambda seed: scenarios.cluster_contended(
        seed, skewed=True
    ),
}

STORM_ROWS = {
    "storm": scenarios.storm,
    "storm_undefended": lambda seed: scenarios.storm(seed, defended=False),
    "retry_storm": scenarios.retry_storm,
    "retry_storm_undefended": lambda seed: scenarios.retry_storm(
        seed, defended=False
    ),
    "retry_storm_healthy": lambda seed: scenarios.retry_storm(
        seed, defended=False, crowd=False
    ),
}


def arrivals(requests):
    return [(r.request_id, r.arrival_s, r.seed) for r in requests]


class TestRowsArePureFunctionsOfTheirSeed:
    @pytest.mark.parametrize("name", CLOSED_ROWS)
    def test_closed_row(self, name):
        row = CLOSED_ROWS[name]
        workload, kwargs = row(5)
        again, kwargs_again = row(5)
        other, kwargs_other = row(6)
        assert workload == again and kwargs == kwargs_again
        assert arrivals(make_workload(workload)) == arrivals(
            make_workload(again)
        )
        assert kwargs != kwargs_other
        assert arrivals(make_workload(workload)) != arrivals(
            make_workload(other)
        )

    @pytest.mark.parametrize("name", STORM_ROWS)
    def test_storm_row(self, name):
        row = STORM_ROWS[name]
        config, again, other = row(5), row(5), row(6)
        assert config == again
        assert config != other
        trace = arrivals(make_trace(config.trace))
        assert trace and trace == arrivals(make_trace(again.trace))
        assert trace != arrivals(make_trace(other.trace))

    def test_undefended_rows_keep_traffic_and_node(self):
        """The differential's two sides differ in defenses only."""
        for row in (scenarios.storm, scenarios.retry_storm):
            defended, undefended = row(), row(defended=False)
            assert defended.overload and undefended.overload is None
            assert replace(
                undefended,
                overload=defended.overload,
                autoscale=defended.autoscale,
                clients=defended.clients,
                retry_budget=defended.retry_budget,
            ) == defended
        clients = scenarios.retry_storm(defended=False).clients
        assert clients["retry"] == scenarios.retry_storm().clients["retry"]
        assert "breaker" not in clients and "throttle" not in clients


def test_retry_storm_base_load_is_the_healthy_equilibrium():
    """No crowd, no defenses: every class met, nothing retried, not
    trapped -- so what the crowd leaves behind is metastability, not
    plain overload.  (A third of the horizon keeps this in tier 1; the
    full-length run is benchmarks/bench_serve.py's gate.)"""
    row = scenarios.retry_storm(defended=False, crowd=False)
    assert row.trace.components == ()
    outcome = run_storm(
        replace(row, trace=replace(row.trace, horizon_s=0.3))
    )
    assert outcome.report.retries_offered == 0
    assert outcome.report.first_tries == len(outcome.requests) > 0
    assert outcome.attainment("interactive") == 1.0
    assert not outcome.metastability.trapped
    assert outcome.post_crowd_attainment == 1.0


@pytest.mark.faults
class TestServeRecovers:
    def requests(self):
        workload, kwargs = scenarios.mixed(seed=3)
        return (
            make_workload(
                replace(workload, n_requests=12, budget_scale=0.25)
            ),
            dict(kwargs, n_devices=2, checkpoint_every=5),
        )

    def test_planned_crash_is_absorbed_exactly_once(self, tmp_path):
        requests, kwargs = self.requests()
        served = serve(
            requests,
            journal=tmp_path / "journal.jsonl",
            faults="crash=tick:12",
            **kwargs,
        )
        records, report = served
        assert served.crashed is not None
        assert served.crashed is not served.service
        assert sorted(r.request.request_id for r in records) == sorted(
            r.request_id for r in requests
        )
        assert report.completed == len(requests)
        # Every request was adopted, resumed or restarted -- once.
        assert (
            report.recovered + report.resumed + report.restarted
            == len(requests)
        )
        assert report.resumed > 0
        served.crashed.pool.assert_drained()
        served.service.pool.assert_drained()

    def test_no_crash_no_recovery(self, tmp_path):
        requests, kwargs = self.requests()
        served = serve(
            requests, journal=tmp_path / "journal.jsonl", **kwargs
        )
        assert served.crashed is None
        assert served.report.recovered == 0
        assert served.report.completed == len(requests)

    def test_recover_false_leaves_the_journal_to_the_caller(
        self, tmp_path
    ):
        requests, kwargs = self.requests()
        journal = tmp_path / "journal.jsonl"
        with pytest.raises(ServiceCrash):
            serve(
                requests,
                journal=journal,
                recover=False,
                faults="crash=tick:12",
                **kwargs,
            )
        resumed = SearchService.recover(journal, **kwargs)
        assert len(resumed.run()) == len(requests)

    def test_crash_without_a_journal_propagates(self):
        requests, kwargs = self.requests()
        with pytest.raises(ServiceCrash):
            serve(requests, faults="crash=tick:12", **kwargs)
