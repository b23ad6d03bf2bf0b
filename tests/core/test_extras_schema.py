"""Extras-schema lint: every emitted key is declared, typed, named.

Each engine kind registers its extras schema (``family.metric`` keys)
via :func:`repro.core.register_extra_keys`; this suite runs every kind
on both backends (and under fault injection for the guarded kinds) and
asserts the emission matches the declaration -- no undeclared keys, no
wrongly-typed values, no legacy spellings leaking back in.
"""

import re

import pytest

from repro.core import (
    EXTRA_KEYS,
    extras_schema,
    make_engine,
)
from repro.core.spec import engine_kinds
from repro.games import make_game
from tests.core.test_differential import SMALL_SPECS

BUDGET_S = 4e-4
SEED = 417

#: ``family.metric``: lowercase dotted pairs only.
KEY_SHAPE = re.compile(r"^[a-z]+(_[a-z]+)*\.[a-z]+(_[a-z]+)*$")


def _result(spec):
    game = make_game("tictactoe")
    return make_engine(spec, game, SEED).search(
        game.initial_state(), BUDGET_S
    )


def test_every_registered_kind_declares_a_schema():
    engines = {k.cls.name for k in engine_kinds()}
    assert engines <= set(EXTRA_KEYS)


def test_all_declared_keys_follow_family_metric_convention():
    for engine, schema in EXTRA_KEYS.items():
        for key in schema:
            assert KEY_SHAPE.match(key), (engine, key)


@pytest.mark.parametrize(
    "spec",
    sorted(SMALL_SPECS.values())
    + sorted(f"{s}@arena" for s in SMALL_SPECS.values()),
)
def test_emitted_extras_match_declared_schema(spec):
    res = _result(spec)
    assert res.engine, spec
    schema = res.extras_schema()
    assert schema == extras_schema(res.engine)
    for key, value in res.extras.items():
        assert key in schema, f"{spec} emitted undeclared key {key!r}"
        assert isinstance(value, schema[key]), (spec, key, type(value))


@pytest.mark.integrity
def test_guarded_engines_emit_declared_integrity_keys():
    from repro.faults import FaultPlan, FaultInjector

    game = make_game("tictactoe")
    injector = FaultInjector(FaultPlan.parse("seed=3"))
    for spec in ("block:2x8", "root:2", "tree:2", "pipeline:2"):
        engine = make_engine(spec, game, SEED, injector=injector)
        res = engine.search(game.initial_state(), BUDGET_S)
        schema = res.extras_schema()
        for key, value in res.extras.items():
            assert key in schema, (spec, key)
            assert isinstance(value, schema[key]), (spec, key)
        assert "integrity.detected" in res.extras
