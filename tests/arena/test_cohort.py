"""Tests for the cohort driver."""

import pytest

from repro.arena import play_game
from repro.arena.cohort import play_games_cohort, play_matchups
from repro.arena.tournament import MatchupResult
from repro.core import BlockParallelMcts, SequentialMcts
from repro.core.base import BatchExecutor
from repro.games import TicTacToe
from repro.players import MctsPlayer, RandomPlayer
from repro.serve.scheduler import drive_generators
from repro.util.seeding import derive_seed

GAME = TicTacToe()


def seq_player(seed, budget=0.002):
    return MctsPlayer(GAME, SequentialMcts(GAME, seed), budget)


def gpu_player(seed, budget=0.002):
    return MctsPlayer(
        GAME,
        BlockParallelMcts(GAME, seed, blocks=2, threads_per_block=32),
        budget,
    )


@pytest.fixture
def executor():
    return BatchExecutor("tictactoe", seed=99)


class TestDriveMerged:
    def test_single_generator_matches_engine_result(self, executor):
        engine = SequentialMcts(GAME, seed=4)
        gen = engine.search_steps(GAME.initial_state(), 0.002)
        results = drive_generators({0: gen}, executor)
        assert 0 in results
        assert results[0].simulations > 0

    def test_many_generators_all_complete(self, executor):
        gens = {
            i: SequentialMcts(GAME, seed=i).search_steps(
                GAME.initial_state(), 0.001 + 0.001 * i
            )
            for i in range(5)
        }
        results = drive_generators(gens, executor)
        assert set(results) == set(range(5))
        for res in results.values():
            assert res.move in range(9)

    def test_empty_input(self, executor):
        assert drive_generators({}, executor) == {}


class TestPlayGamesCohort:
    def test_rejects_empty_cohort(self, executor):
        with pytest.raises(ValueError):
            play_games_cohort(GAME, [], executor)

    def test_games_complete_with_valid_records(self, executor):
        matchups = [
            (seq_player(i * 2), seq_player(i * 2 + 1)) for i in range(4)
        ]
        records = play_games_cohort(GAME, matchups, executor)
        assert len(records) == 4
        for rec in records:
            assert rec.winner in (-1, 0, 1)
            assert 5 <= rec.length <= 9
            assert [m.step for m in rec.moves] == list(
                range(1, rec.length + 1)
            )

    def test_mixed_cpu_gpu_cohort(self, executor):
        matchups = [
            (gpu_player(1), seq_player(2)),
            (seq_player(3), gpu_player(4)),
            (RandomPlayer(GAME, 5), seq_player(6)),
        ]
        records = play_games_cohort(GAME, matchups, executor)
        assert len(records) == 3
        for rec in records:
            assert rec.winner in (-1, 0, 1)

    def test_telemetry_recorded(self, executor):
        records = play_games_cohort(
            GAME, [(seq_player(1), seq_player(2))], executor
        )
        first_move = records[0].moves[0]
        assert first_move.simulations > 0
        assert first_move.max_depth >= 1

    def test_cohort_games_are_sensible_mcts_games(self, executor):
        """MCTS vs MCTS TicTacToe with a decent budget mostly draws."""
        matchups = [
            (seq_player(i, 0.004), seq_player(100 + i, 0.004))
            for i in range(6)
        ]
        records = play_games_cohort(GAME, matchups, executor)
        draws = sum(1 for r in records if r.winner == 0)
        assert draws >= 3

    def test_single_game_cohort_equivalent_quality(self, executor):
        """A cohort of one behaves like play_game (same API surface)."""
        rec_cohort = play_games_cohort(
            GAME, [(seq_player(1), seq_player(2))], executor
        )[0]
        rec_direct = play_game(GAME, seq_player(1), seq_player(2))
        # RNG paths differ (batched vs scalar playouts) so moves may
        # differ; the contract is structural validity, not identity.
        assert rec_cohort.winner in (-1, 0, 1)
        assert rec_direct.winner in (-1, 0, 1)


class TestPlayMatchups:
    SUBJECTS = {"gpu": gpu_player, "cpu": seq_player}

    @staticmethod
    def seeds(key, g, role):
        return derive_seed(7, key, g, role)

    def test_equals_folding_the_cohort_by_hand(self, executor):
        results = play_matchups(
            GAME, self.SUBJECTS, seq_player, 3, self.seeds, executor
        )

        matchups, colours = [], []
        for key, subject in self.SUBJECTS.items():
            for g in range(3):
                subj = subject(self.seeds(key, g, "subject"))
                opp = seq_player(self.seeds(key, g, "opponent"))
                colours.append(1 if g % 2 == 0 else -1)
                matchups.append(
                    (subj, opp) if colours[-1] == 1 else (opp, subj)
                )
        records = play_games_cohort(
            GAME, matchups, BatchExecutor("tictactoe", seed=99)
        )
        by_hand = {"gpu": MatchupResult(), "cpu": MatchupResult()}
        for i, (record, colour) in enumerate(zip(records, colours)):
            by_hand["gpu" if i < 3 else "cpu"].add(record, colour)

        assert results == by_hand
        for result in results.values():
            assert result.games == 3
            assert result.win_ratio == (
                result.wins + 0.5 * result.draws
            ) / 3

    def test_colours_alternate_from_black(self, executor):
        results = play_matchups(
            GAME, self.SUBJECTS, seq_player, 3, self.seeds, executor
        )
        for result in results.values():
            assert result.subject_colours == [1, -1, 1]

    def test_keys_keep_insertion_order(self, executor):
        subjects = {key: seq_player for key in ("b", "a", "c")}
        results = play_matchups(
            GAME, subjects, seq_player, 1, self.seeds, executor
        )
        assert list(results) == ["b", "a", "c"]

    def test_rejects_no_subjects(self, executor):
        with pytest.raises(ValueError, match="subjects"):
            play_matchups(GAME, {}, seq_player, 2, self.seeds, executor)

    @pytest.mark.parametrize("n_games", [0, -1])
    def test_rejects_no_games(self, executor, n_games):
        with pytest.raises(ValueError, match="n_games"):
            play_matchups(
                GAME, self.SUBJECTS, seq_player, n_games, self.seeds, executor
            )
