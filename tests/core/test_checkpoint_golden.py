"""Cross-commit golden for the engine checkpoint codec.

The round-trip tests in ``test_checkpoint.py`` snapshot and restore
with the *same* code, so a codec change that drifts on both sides is
invisible to them.  This file pins the snapshot payload itself: every
spec in that module's list (each kind x {node, arena}, plus the guarded
engines under a fault injector, so the ``integrity`` entry is covered)
is stopped at its crash iteration and both the payload -- one digest
per session key -- and the resumed ``SearchResult`` are compared with
a checked-in golden.  Equal payload digests across two commits mean a
checkpoint (or journal record) written by one restores on the other.
Every spec names its backend (``@node`` / ``@arena``); a case is keyed
by its test id, which leaves ``@node`` out -- the spelling the golden
was cut under, when node was every engine's default.

To intentionally update the golden after a deliberate format change
(which also needs a ``CHECKPOINT_FORMAT_VERSION`` bump)::

    REPRO_REGEN_GOLDEN=1 PYTHONPATH=src python -m pytest \
        tests/core/test_checkpoint_golden.py
"""

import dataclasses
import hashlib
import json
import numbers
import os
from pathlib import Path

import numpy as np
import pytest

from repro.core.spec import make_engine
from repro.faults import FaultInjector, FaultPlan
from repro.games import make_game
from tests.core.test_checkpoint import ALL_SPECS, Boom, _crash_at, case_id
from tests.core.test_differential import BUDGET_S, SEED

GOLDEN_PATH = Path(__file__).parent / "golden" / "checkpoint_payloads.json"

#: Fault plan for the guarded variants.  Corruption only: a poisoned
#: arena tree is (deliberately) refused by ``restore``'s validation.
FAULT_PLAN = "corrupt=0.4:nan,seed=3"
GUARDED_SPECS = [
    f"{spec}{backend}"
    for spec in (
        "block:2x8",
        "multigpu:2x2x16",
        "pipeline:2",
        "root:2",
        "tree:2",
    )
    for backend in ("@node", "@arena")
]

CASES = [(spec, False) for spec in ALL_SPECS] + [
    (spec, True) for spec in GUARDED_SPECS
]


def canonical(value):
    """A JSON-able form that is equal exactly when the values are:
    sorted keys, arrays as sha256 of bytes + dtype + shape, floats by
    ``repr`` (NumPy scalars as their Python value)."""
    if isinstance(value, np.ndarray):
        return {
            "sha256": hashlib.sha256(
                np.ascontiguousarray(value).tobytes()
            ).hexdigest(),
            "dtype": str(value.dtype),
            "shape": list(value.shape),
        }
    if value is None or isinstance(value, str):
        return value
    if isinstance(value, (bool, np.bool_)):
        return bool(value)
    if isinstance(value, numbers.Integral):
        return int(value)
    if isinstance(value, numbers.Real):
        return repr(float(value))
    if isinstance(value, dict):
        return {
            str(k): canonical(v)
            for k, v in sorted(value.items(), key=lambda kv: str(kv[0]))
        }
    if isinstance(value, (list, tuple)):
        return [canonical(v) for v in value]
    if isinstance(value, (set, frozenset)):
        return [canonical(v) for v in sorted(value)]
    if dataclasses.is_dataclass(value):
        return {
            f.name: canonical(getattr(value, f.name))
            for f in dataclasses.fields(value)
        }
    raise TypeError(f"no canonical form for {type(value).__name__}")


def digest(value) -> str:
    text = json.dumps(canonical(value), sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


def _engine(spec: str, game, guarded: bool):
    if not guarded:
        return make_engine(spec, game, SEED)
    return make_engine(
        spec,
        game,
        SEED,
        injector=FaultInjector(FaultPlan.parse(FAULT_PLAN)),
    )


def project(spec: str, guarded: bool) -> dict:
    game = make_game("tictactoe")
    engine = _engine(spec, game, guarded)
    captured = {}

    def hook(eng, iterations):
        if iterations >= _crash_at(spec) and "snap" not in captured:
            captured["snap"] = eng.snapshot()
            raise Boom()

    engine.iteration_hook = hook
    with pytest.raises(Boom):
        engine.search(game.initial_state(), BUDGET_S)
    snap = captured["snap"]

    fresh = _engine(spec, game, guarded)
    fresh.restore(snap)
    return {
        "envelope": canonical(
            {
                "format_version": snap.format_version,
                "kind": snap.kind,
                "backend": snap.backend,
                "game": snap.game,
                "seed": snap.seed,
                "clock_s": snap.clock_s,
                "iterations": snap.iterations,
            }
        ),
        "payload": {
            key: digest(value)
            for key, value in sorted(snap.payload.items())
        },
        "result": digest(fresh.resume()),
    }


def _case_id(spec: str, guarded: bool) -> str:
    return f"{case_id(spec)}+faults" if guarded else case_id(spec)


@pytest.mark.faults
@pytest.mark.parametrize(
    "spec,guarded", CASES, ids=[_case_id(*case) for case in CASES]
)
def test_checkpoint_payload_matches_golden(spec, guarded):
    projected = project(spec, guarded)
    key = _case_id(spec, guarded)
    if os.environ.get("REPRO_REGEN_GOLDEN"):
        GOLDEN_PATH.parent.mkdir(exist_ok=True)
        golden = (
            json.loads(GOLDEN_PATH.read_text())
            if GOLDEN_PATH.exists()
            else {}
        )
        golden[key] = projected
        GOLDEN_PATH.write_text(
            json.dumps(golden, indent=2, sort_keys=True) + "\n"
        )
    golden = json.loads(GOLDEN_PATH.read_text())
    assert projected == golden[key]


def test_golden_covers_every_case():
    golden = json.loads(GOLDEN_PATH.read_text())
    assert sorted(golden) == sorted(_case_id(*case) for case in CASES)
    assert any("integrity" in entry["payload"] for entry in golden.values())
