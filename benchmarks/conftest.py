"""Benchmark-suite configuration.

Every figure bench runs its experiment once (rounds=1) -- these are
minutes-scale end-to-end reproductions, not microbenchmarks -- and
prints the rendered table so the run log doubles as the figure output.
Set ``REPRO_TIER=default`` (or ``full``) for higher-fidelity sweeps;
benches default to the quick tier.
"""

import os

import pytest


@pytest.fixture(autouse=True)
def _default_quick_tier(monkeypatch):
    if "REPRO_TIER" not in os.environ:
        monkeypatch.setenv("REPRO_TIER", "quick")


@pytest.fixture
def run_once(benchmark):
    """Run a callable exactly once under pytest-benchmark timing."""

    def _run(fn, *args, **kwargs):
        return benchmark.pedantic(
            fn, args=args, kwargs=kwargs, iterations=1, rounds=1
        )

    return _run


@pytest.fixture(scope="session")
def headline():
    """Each gate appends what it measured; the session ends by printing
    them as one line (visible under ``-s``), so a CI log states the
    numbers its gates passed at."""
    parts: list[str] = []
    yield parts
    if parts:
        print("\nheadline: " + "; ".join(parts))
