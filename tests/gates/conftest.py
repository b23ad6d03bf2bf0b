"""Gates: the bounds on the paper's figure shapes, the serving stack and
the kernels, run by CI by file name (``python -m pytest -s
tests/gates/<file>``).  ``norecursedirs`` keeps tier-1 off this
directory.

Every gate runs at the quick tier unless ``REPRO_TIER`` says otherwise
(``REPRO_TIER=default`` or ``full`` for the richer sweeps), and the
session ends with one ``headline:`` line (visible under ``-s``) of the
numbers the gates passed at.
"""

import os

import pytest


@pytest.fixture(autouse=True)
def _default_quick_tier(monkeypatch):
    if "REPRO_TIER" not in os.environ:
        monkeypatch.setenv("REPRO_TIER", "quick")


@pytest.fixture(scope="session")
def headline():
    """Each gate appends what it measured; the session ends by printing
    them as one line."""
    parts: list[str] = []
    yield parts
    if parts:
        print("\nheadline: " + "; ".join(parts))
