"""Engine-level defense behavior: screening, retries, poison,
audit, quarantine -- and the zero-rate bit-identity guarantee."""

import dataclasses

import pytest

from repro.core import BlockParallelMcts, RootParallelMcts
from repro.faults import FaultInjector, FaultPlan
from repro.games import TicTacToe
from repro.integrity import IntegrityPolicy

pytestmark = pytest.mark.integrity

GAME = TicTacToe()
BUDGET = 0.002


def injector(text):
    return FaultInjector(FaultPlan.parse(text))


def integrity_of(result) -> dict:
    """The result's ``integrity.*`` extras, family prefix stripped."""
    return {
        key.split(".", 1)[1]: value
        for key, value in result.extras.items()
        if key.startswith("integrity.")
    }


def block_engine(inj=None, **kwargs):
    return BlockParallelMcts(
        GAME, seed=11, blocks=4, threads_per_block=32,
        injector=inj, **kwargs
    )


def root_engine(inj=None, **kwargs):
    return RootParallelMcts(
        GAME, seed=11, n_trees=4, injector=inj, **kwargs
    )


class TestZeroRateBitIdentity:
    @pytest.mark.parametrize("make", [block_engine, root_engine])
    def test_zero_rate_plan_is_a_noop(self, make):
        baseline = make(None).search(GAME.initial_state(), BUDGET)
        defended = make(injector("seed=7")).search(
            GAME.initial_state(), BUDGET
        )
        assert defended.move == baseline.move
        assert defended.stats == baseline.stats
        assert defended.iterations == baseline.iterations
        assert defended.simulations == baseline.simulations
        assert defended.elapsed_s == baseline.elapsed_s
        # ... and the defenses report a clean run.
        info = integrity_of(defended)
        assert info["detected"] == 0
        assert info["escaped"] == 0
        assert info["quarantined"] == []

    def test_no_injector_result_has_no_integrity_extras(self):
        result = block_engine(None).search(GAME.initial_state(), BUDGET)
        assert not any(
            k.startswith("integrity.") for k in result.extras
        )
        assert integrity_of(result) == {}


class TestBlockScreening:
    def test_detectable_corruption_is_caught_and_retried(self):
        result = block_engine(
            injector("corrupt=0.3:nan,seed=3")
        ).search(GAME.initial_state(), BUDGET)
        info = integrity_of(result)
        assert info["detected"] > 0
        assert info["escaped"] == 0
        # Retries re-run the kernel: every attempt's playouts charged.
        assert result.simulations > result.iterations * 4 * 32

    def test_saturated_corruption_degrades_not_crashes(self):
        # Every readback corrupt: the retry budget runs out and the
        # engine degrades batches to neutral draws, still finishing.
        result = block_engine(
            injector("corrupt=1.0:negative,seed=3")
        ).search(GAME.initial_state(), BUDGET)
        info = integrity_of(result)
        assert info["dropped_batches"] == result.iterations
        assert info["detected"] >= result.iterations
        assert result.move in GAME.legal_moves(GAME.initial_state())

    def test_moveswap_escapes_value_validation(self):
        result = block_engine(
            injector("corrupt=1.0:moveswap,seed=3")
        ).search(GAME.initial_state(), BUDGET)
        info = integrity_of(result)
        assert info["detected"] == 0
        assert info["escaped"] > 0
        assert info["dropped_batches"] == 0

    def test_defenses_off_lets_corruption_through(self):
        result = block_engine(
            injector("corrupt=0.5:nan,seed=3"),
            integrity=IntegrityPolicy.disabled(),
        ).search(GAME.initial_state(), BUDGET)
        info = integrity_of(result)
        assert info["detected"] == 0
        assert info["escaped"] > 0


class TestPoisonAndQuarantine:
    def test_poisoned_tree_is_audited_out(self):
        result = block_engine(injector("poison=tree:2")).search(
            GAME.initial_state(), BUDGET
        )
        info = integrity_of(result)
        assert info["poisoned"] > 0
        assert info["violations"] > 0
        assert info["quarantined"] == [2]

    def test_quarantine_respects_policy(self):
        result = block_engine(
            injector("poison=tree:2"),
            integrity={"quarantine": False},
        ).search(GAME.initial_state(), BUDGET)
        info = integrity_of(result)
        assert info["violations"] > 0
        assert info["quarantined"] == []

    def test_audit_disabled_never_fires(self):
        result = block_engine(
            injector("poison=tree:2"),
            integrity={"audit_every": 0},
        ).search(GAME.initial_state(), BUDGET)
        info = integrity_of(result)
        assert info["audits"] == 0
        assert info["quarantined"] == []

    def test_out_of_range_poison_index_ignored(self):
        result = block_engine(injector("poison=tree:99")).search(
            GAME.initial_state(), BUDGET
        )
        assert integrity_of(result)["poisoned"] == 0

    @pytest.mark.parametrize("backend", ["node", "arena"])
    def test_both_backends_quarantine(self, backend):
        result = BlockParallelMcts(
            GAME,
            seed=11,
            blocks=4,
            threads_per_block=32,
            injector=injector("poison=tree:1"),
            backend=backend,
        ).search(GAME.initial_state(), BUDGET)
        assert integrity_of(result)["quarantined"] == [1]

    def test_root_engine_quarantines_poison(self):
        result = root_engine(injector("poison=tree:0")).search(
            GAME.initial_state(), BUDGET
        )
        assert integrity_of(result)["quarantined"] == [0]


class TestRootScreening:
    def test_detectable_corruption_is_caught(self):
        result = root_engine(
            injector("corrupt=0.3:overflow,seed=3")
        ).search(GAME.initial_state(), BUDGET)
        info = integrity_of(result)
        assert info["detected"] > 0
        assert info["escaped"] == 0

    def test_saturated_corruption_degrades_not_crashes(self):
        result = root_engine(
            injector("corrupt=1.0:nan,seed=3")
        ).search(GAME.initial_state(), BUDGET)
        info = integrity_of(result)
        assert info["dropped_batches"] > 0
        assert result.move in GAME.legal_moves(GAME.initial_state())


class TestVoteModes:
    @pytest.mark.parametrize("engine", [block_engine, root_engine])
    def test_unknown_vote_mode_rejected(self, engine):
        with pytest.raises(ValueError, match="vote mode"):
            engine(None, vote="median")

    @pytest.mark.parametrize("vote", ["sum", "majority", "trimmed"])
    def test_every_vote_mode_completes(self, vote):
        result = block_engine(None, vote=vote).search(
            GAME.initial_state(), BUDGET
        )
        assert result.move in GAME.legal_moves(GAME.initial_state())

    def test_trimmed_vote_resists_undetected_poison(self):
        # Audits off so the poisoned tree stays in the vote.  With 8
        # trees and trim=0.2, one tree from each tail is trimmed, so
        # the poisoned tree's inflated win share cannot drag the vote
        # away from the clean run's choice.
        def search(vote):
            return BlockParallelMcts(
                GAME,
                seed=11,
                blocks=8,
                threads_per_block=32,
                injector=injector("poison=tree:0"),
                integrity={"audit_every": 0},
                vote=vote,
            ).search(GAME.initial_state(), BUDGET)

        clean = BlockParallelMcts(
            GAME, seed=11, blocks=8, threads_per_block=32
        ).search(GAME.initial_state(), BUDGET)
        poisoned = search("trimmed")
        assert integrity_of(poisoned)["poisoned"] > 0
        assert poisoned.move == clean.move


class TestCheckpointCarriesIntegrityState:
    def test_integrity_counters_survive_snapshot_restore(self):
        engine = block_engine(injector("corrupt=0.4:nan,seed=3"))
        snaps = []
        engine.iteration_hook = lambda eng, n: snaps.append(
            eng.snapshot()
        )
        result = engine.search(GAME.initial_state(), BUDGET)
        assert integrity_of(result)["detected"] > 0

        resumed = block_engine(injector("corrupt=0.4:nan,seed=3"))
        resumed.restore(snaps[-1])
        final = resumed.resume()
        assert integrity_of(final) == integrity_of(result)
        assert final.move == result.move
        assert final.stats == result.stats
