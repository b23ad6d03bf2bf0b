"""Crash/resume differential tests for engine checkpointing.

The core oracle: a search interrupted at iteration *k*, snapshotted,
restored into a **fresh** engine and resumed must finish bit-identical
to the uninterrupted run -- same chosen move, same per-move root
statistics, same iteration/simulation counters, same virtual elapsed
time.  This holds for every registered engine kind on both tree
backends, with the snapshot round-tripped through its serialised byte
form (so the on-disk format, not just the live object graph, is what
resumes).
"""

import dataclasses
import pickle

import pytest

from repro.core import (
    CheckpointError,
    load_checkpoint,
    save_checkpoint,
    snapshot_bytes,
    snapshot_from_bytes,
)
from repro.core.spec import make_engine
from repro.games import make_game
from tests.core.test_differential import BUDGET_S, SEED, SMALL_SPECS

#: Iteration at which the injected crash lands.  Multi-GPU engines
#: checkpoint at completed-rank boundaries (iterations run 1..n_gpus),
#: so their crash must land inside that range.
CRASH_AT = {"multigpu": 1}
DEFAULT_CRASH_AT = 3

#: Every kind on both stores, each spec naming its backend (a spec that
#: names none runs its game's default stack).
ALL_SPECS = (
    sorted(f"{spec}@node" for spec in SMALL_SPECS.values())
    + sorted(f"{spec}@arena" for spec in SMALL_SPECS.values())
    # WU-UCT variants of the shared-tree engines on both backends.
    + [
        "tree:2@wuct@node",
        "tree:2@wuct@arena",
        "pipeline:2@wuct@node",
        "pipeline:2@wuct@arena",
    ]
)


def case_id(spec: str) -> str:
    """A case's test id: ``spec`` without ``@node``, the spelling the
    cases (and the payload golden's keys) had while node was every
    engine's default."""
    return spec.replace("@node", "")


class Boom(RuntimeError):
    """The injected mid-search crash."""


def _crash_at(spec: str) -> int:
    kind = spec.split(":", 1)[0].split("@", 1)[0]
    return CRASH_AT.get(kind, DEFAULT_CRASH_AT)


def _engine(spec: str, game):
    return make_engine(spec, game, SEED)


def _uninterrupted(spec: str, game):
    engine = _engine(spec, game)
    return engine.search(game.initial_state(), BUDGET_S)


def _crashed_snapshot(spec: str, game, k: int):
    """Run ``spec`` until iteration ``k``, snapshot there, and crash."""
    engine = _engine(spec, game)
    captured = {}

    def hook(eng, iterations):
        if iterations >= k and "snap" not in captured:
            captured["snap"] = eng.snapshot()
            raise Boom()

    engine.iteration_hook = hook
    with pytest.raises(Boom):
        engine.search(game.initial_state(), BUDGET_S)
    return captured["snap"]


def _assert_same_result(resumed, base):
    assert resumed.move == base.move
    assert resumed.stats == base.stats
    assert resumed.iterations == base.iterations
    assert resumed.simulations == base.simulations
    assert resumed.elapsed_s == base.elapsed_s


@pytest.mark.faults
@pytest.mark.parametrize("spec", ALL_SPECS, ids=case_id)
def test_crash_restore_resume_is_bit_identical(spec):
    game = make_game("tictactoe")
    base = _uninterrupted(spec, game)
    snap = _crashed_snapshot(spec, game, _crash_at(spec))

    # Round-trip through the serialised form: what resumes is what a
    # journal or checkpoint file would hold, not the live snapshot.
    snap = snapshot_from_bytes(snapshot_bytes(snap))

    fresh = _engine(spec, game)
    fresh.restore(snap)
    _assert_same_result(fresh.resume(), base)


def test_snapshot_mid_search_does_not_perturb_the_run():
    """Taking a snapshot is observationally free: a run that snapshots
    every iteration finishes identical to one that never does."""
    game = make_game("tictactoe")
    base = _uninterrupted("tree:2", game)

    engine = _engine("tree:2", game)
    snaps = []
    engine.iteration_hook = lambda eng, n: snaps.append(eng.snapshot())
    observed = engine.search(game.initial_state(), BUDGET_S)
    _assert_same_result(observed, base)
    assert snaps  # the hook actually fired
    assert [s.iterations for s in snaps] == sorted(
        {s.iterations for s in snaps}
    )


def test_snapshot_outside_session_rejected():
    game = make_game("tictactoe")
    engine = _engine("sequential", game)
    with pytest.raises(CheckpointError, match="no live search"):
        engine.snapshot()
    with pytest.raises(CheckpointError, match="no session to resume"):
        engine.resume()


class TestCheckpointFile:
    def _snapshot(self):
        game = make_game("tictactoe")
        return _crashed_snapshot("sequential@node", game, DEFAULT_CRASH_AT)

    def test_file_round_trip(self, tmp_path):
        snap = self._snapshot()
        path = tmp_path / "search.ckpt"
        save_checkpoint(snap, path)
        loaded = load_checkpoint(path)
        assert loaded == snap

        game = make_game("tictactoe")
        fresh = _engine("sequential@node", game)
        fresh.restore(loaded)
        _assert_same_result(
            fresh.resume(), _uninterrupted("sequential@node", game)
        )

    def test_foreign_file_rejected(self, tmp_path):
        path = tmp_path / "junk.ckpt"
        path.write_bytes(pickle.dumps({"surprise": 1}))
        with pytest.raises(CheckpointError, match="not .* checkpoint"):
            load_checkpoint(path)

    def test_version_mismatch_rejected(self, tmp_path):
        snap = dataclasses.replace(self._snapshot(), format_version=99)
        path = tmp_path / "future.ckpt"
        save_checkpoint(snap, path)
        with pytest.raises(CheckpointError, match="version"):
            load_checkpoint(path)

    def test_restore_rejects_mismatched_engine(self):
        snap = self._snapshot()
        game = make_game("tictactoe")
        with pytest.raises(CheckpointError, match="kind"):
            _engine("tree:2", game).restore(snap)
        with pytest.raises(CheckpointError, match="seed"):
            make_engine("sequential@node", game, SEED + 1).restore(snap)
        with pytest.raises(CheckpointError, match="game"):
            _engine(
                "sequential@node", make_game("connect4")
            ).restore(snap)
        with pytest.raises(CheckpointError, match="backend"):
            _engine("sequential@arena", game).restore(snap)

    def test_restore_rejects_mismatched_parallel_mode(self):
        game = make_game("tictactoe")
        for kind in ("tree", "pipeline"):
            snap = _crashed_snapshot(f"{kind}:2@wuct", game, 2)
            with pytest.raises(CheckpointError, match="mode"):
                _engine(f"{kind}:2", game).restore(snap)
