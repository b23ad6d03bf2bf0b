"""Tests for deterministic workload generation (repro.serve.workload)."""

import pytest

from repro.serve import WorkloadConfig, make_workload
from repro.serve.workload import DEFAULT_BUDGETS


class TestWorkload:
    def test_same_config_same_workload(self):
        cfg = WorkloadConfig(n_requests=12, seed=5)
        assert make_workload(cfg) == make_workload(cfg)

    def test_different_seed_different_request_seeds(self):
        a = make_workload(WorkloadConfig(n_requests=4, seed=1))
        b = make_workload(WorkloadConfig(n_requests=4, seed=2))
        assert [r.seed for r in a] != [r.seed for r in b]

    def test_cycles_through_games_and_engines(self):
        reqs = make_workload(WorkloadConfig(n_requests=12))
        games = {r.game for r in reqs}
        engines = {str(r.engine) for r in reqs}
        assert games == {"reversi", "tictactoe", "connect4"}
        assert "sequential" in engines
        assert any(e.startswith("root:") for e in engines)
        assert any(e.startswith("block:") for e in engines)

    def test_budgets_follow_game_defaults_and_scale(self):
        reqs = make_workload(
            WorkloadConfig(n_requests=6, budget_scale=0.5)
        )
        for req in reqs:
            assert req.budget_s == pytest.approx(
                DEFAULT_BUDGETS[req.game] * 0.5
            )

    def test_closed_batch_arrives_at_once(self):
        reqs = make_workload(WorkloadConfig(n_requests=3))
        assert [r.arrival_s for r in reqs] == [0.0, 0.0, 0.0]
        assert [r.request_id for r in reqs] == ["r000", "r001", "r002"]

    def test_unique_request_ids(self):
        reqs = make_workload(WorkloadConfig(n_requests=64))
        assert len({r.request_id for r in reqs}) == 64

    def test_validation(self):
        with pytest.raises(ValueError, match="n_requests"):
            WorkloadConfig(n_requests=0)
        with pytest.raises(ValueError, match="budget_scale"):
            WorkloadConfig(budget_scale=0.0)


class TestPositionSkew:
    def test_default_workload_searches_initial_positions(self):
        reqs = make_workload(WorkloadConfig(n_requests=8))
        assert all(r.state is None for r in reqs)

    def test_pooled_positions_are_deterministic_and_live(self):
        from repro.games import make_game

        cfg = WorkloadConfig(
            n_requests=24, seed=3, position_pool=12
        )
        reqs = make_workload(cfg)
        again = make_workload(cfg)
        assert all(r.state is not None for r in reqs)
        assert [r.state for r in reqs] == [r.state for r in again]
        games = {name: make_game(name) for name in cfg.games}
        for r in reqs:
            assert not games[r.game].is_terminal(r.state)

    def test_skew_concentrates_traffic_on_hot_positions(self):
        from collections import Counter

        def key_counts(skew):
            reqs = make_workload(
                WorkloadConfig(
                    n_requests=60,
                    seed=3,
                    games=("tictactoe",),
                    engines=("sequential",),
                    position_pool=30,
                    position_skew=skew,
                )
            )
            return Counter(r.state for r in reqs)

        uniform = key_counts(0.0)
        skewed = key_counts(1.4)
        # Zipf mass piles onto the head: the hottest position is
        # hotter, and fewer distinct positions are touched.
        assert skewed.most_common(1)[0][1] > (
            uniform.most_common(1)[0][1]
        )
        assert len(skewed) < len(uniform)

    def test_skew_defaults_a_pool(self):
        cfg = WorkloadConfig(position_skew=1.0)
        assert cfg.effective_position_pool == 32
        assert WorkloadConfig().effective_position_pool == 0

    def test_skew_validation(self):
        with pytest.raises(ValueError, match="position_skew"):
            WorkloadConfig(position_skew=-0.1)
        with pytest.raises(ValueError, match="position_pool"):
            WorkloadConfig(position_pool=-1)

    def test_each_engine_entry_is_rewritten_once_per_workload(
        self, monkeypatch
    ):
        """The stack suffix is applied per engine entry, not per request;
        an explicit modifier in the spec still wins, kept verbatim."""
        from repro.serve import workload

        calls = []
        real = workload.with_stack

        def counting(spec, backend, playout):
            calls.append(spec)
            return real(spec, backend, playout)

        monkeypatch.setattr(workload, "with_stack", counting)
        engines = ("sequential", "root:2@node", "block:2x4@compiled")
        reqs = make_workload(
            WorkloadConfig(
                n_requests=60,
                engines=engines,
                backend="arena",
                playout="compiled",
            )
        )
        assert len(calls) == len(engines)
        assert [r.engine for r in reqs[:3]] == [
            "sequential@arena@compiled",
            "root:2@node@compiled",
            "block:2x4@arena@compiled",
        ]
        assert [r.engine for r in reqs] == [r.engine for r in reqs[:3]] * 20
