"""Cross-commit golden for the paper's own tables.

Every match experiment (Figs. 6-9, the generalization and shared-tree
experiments, the three match ablations) plus Figure 5 runs on its tiny
config in ``CASES`` (``conftest.py``) and its ``render()`` is compared
against a checked-in golden; the result is the session's one run of
that config, the object ``test_experiments.py``'s shape checks read.
The golden was generated at the commit *before* the harness moved onto
one match protocol and the measured stack, so it holds two things at
once: the shared fold (``play_matchups`` -> ``MatchupResult``) reads
the same numbers the nine hand-written loops did, and ``arena`` +
``compiled`` plays the same games as ``node`` + ``numpy``, seed for
seed, on the figures themselves.  Under ``REPRO_COMPILED=0`` the same
file holds the fallback stack to the same tables.

To intentionally update the golden after a deliberate behaviour
change::

    REPRO_REGEN_GOLDEN=1 PYTHONPATH=src python -m pytest \
        tests/harness/test_golden_tables.py
"""

import json
import os
from pathlib import Path

import pytest

from tests.harness.conftest import CASES, RUNS

GOLDEN_PATH = Path(__file__).parent / "golden" / "tiny_tables.json"


def read_golden() -> dict:
    return json.loads(GOLDEN_PATH.read_text())


def test_golden_covers_every_case():
    if os.environ.get("REPRO_REGEN_GOLDEN"):
        pytest.skip("regenerating")
    assert set(read_golden()) == set(CASES)


@pytest.mark.parametrize("name", CASES)
def test_table_matches_golden(name, tiny):
    table = tiny(name).render()
    if os.environ.get("REPRO_REGEN_GOLDEN"):
        golden = read_golden() if GOLDEN_PATH.exists() else {}
        golden[name] = table
        GOLDEN_PATH.parent.mkdir(exist_ok=True)
        GOLDEN_PATH.write_text(
            json.dumps(golden, indent=2, sort_keys=True) + "\n"
        )
    assert table == read_golden()[name]


def test_each_case_runs_once_per_session(tiny):
    """Every reader of a table reads the one run: a second request is
    the same object, and no config has run twice.  Collected after
    ``test_experiments.py`` and the golden compares, so in a whole-suite
    session it counts their runs too."""
    result = tiny("fig5_speed")
    assert tiny("fig5_speed") is result
    assert set(RUNS.values()) == {1}


def test_fallback_stack_renders_the_same_table(compiled_env):
    """Without a toolchain the harness runs the reference stack
    (pointer trees, NumPy playouts); the figure does not move.  The one
    ``CASES`` config run outside :func:`tiny`: it must not share the
    session's run, which played on the default stack."""
    compiled_env("0")
    runner, config = CASES["fig8_hybrid"]
    assert runner(config).render() == read_golden()["fig8_hybrid"]
