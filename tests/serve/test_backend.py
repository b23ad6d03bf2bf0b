"""Tree-backend selection through the serving layer.

The backend threads through two doors: ``WorkloadConfig.backend``
suffixes ``@node`` / ``@arena`` onto every generated engine spec, and
``SearchService(backend=...)`` applies one to requests whose spec did
not pick one; with neither, each request runs its game's default
stack.  Because the backends are bit-identical by contract, every one
of those runs must reproduce the node run's results exactly.
"""

import pytest

from repro.serve import SearchService, WorkloadConfig, make_workload


def test_workload_backend_suffixes_engine_specs():
    requests = make_workload(WorkloadConfig(n_requests=8, backend="arena"))
    assert all(r.engine.endswith("@arena") for r in requests)
    # Default leaves specs untouched.
    plain = make_workload(WorkloadConfig(n_requests=8))
    assert not any("@" in r.engine for r in plain)


def test_workload_backend_respects_explicit_suffix():
    config = WorkloadConfig(
        n_requests=2, engines=("block:2x8@node",), backend="arena"
    )
    assert all(
        r.engine == "block:2x8@node" for r in make_workload(config)
    )


def test_workload_rejects_unknown_backend():
    with pytest.raises(ValueError, match="backend"):
        WorkloadConfig(n_requests=2, backend="cuda")


def test_service_rejects_unknown_backend():
    with pytest.raises(ValueError, match="backend"):
        SearchService(backend="cuda")


def _run(workload_backend: str | None, service_backend: str | None):
    requests = make_workload(
        WorkloadConfig(
            n_requests=6, budget_scale=0.25, backend=workload_backend
        )
    )
    service = SearchService(
        n_devices=2, max_active=8, seed=7, backend=service_backend
    )
    service.submit_all(requests)
    return {
        rec.request.request_id: (
            rec.status,
            rec.result.move if rec.result else None,
            rec.result.simulations if rec.result else None,
        )
        for rec in service.run()
    }


def test_arena_service_reproduces_node_results():
    node = _run("node", "node")
    via_workload = _run("arena", "node")
    via_service_default = _run(None, "arena")
    assert via_workload == node
    assert via_service_default == node
    assert _run(None, None) == node
