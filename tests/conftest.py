"""Fixtures shared by every test package."""

import pytest

from repro.compiled import reset_cache


@pytest.fixture
def compiled_env(monkeypatch):
    """``compiled_env("0")`` sets ``REPRO_COMPILED`` for the rest of the
    test.  The kernel library reads the variable once per
    ``reset_cache()``, so setting it resets the cache, and so does the
    teardown: the next load reads the restored environment."""

    def set_to(value: str) -> None:
        monkeypatch.setenv("REPRO_COMPILED", value)
        reset_cache()

    yield set_to
    reset_cache()
