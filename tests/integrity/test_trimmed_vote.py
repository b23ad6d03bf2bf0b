"""Byzantine-tolerant trimmed vote and the integrity policy/audit."""

import pytest

from repro.core import (
    NodeForest,
    RootParallelMcts,
    aggregate_stat_dicts,
    select_move,
    trimmed_vote_stat_dicts,
)
from repro.core.tree import SearchTree
from repro.games import TicTacToe
from repro.integrity import IntegrityPolicy, audit_root_stats
from repro.rng import XorShift64Star

pytestmark = pytest.mark.integrity

GAME = TicTacToe()


def honest_stats(move, visits=100.0):
    """A tree that spent most of its visits on ``move``."""
    stats = {m: (5.0, 2.5) for m in range(3) if m != move}
    stats[move] = (visits, visits * 0.6)
    return stats


class TestTrimmedVoteStatDicts:
    def test_unanimous_ensemble_keeps_its_choice(self):
        per_tree = [honest_stats(1) for _ in range(5)]
        voted = trimmed_vote_stat_dicts(per_tree)
        assert select_move(voted) == 1

    def test_one_byzantine_tree_is_trimmed_out(self):
        # Four honest trees prefer move 1; one poisoned tree reports
        # an absurd visit mass on move 2.  The sum vote falls for it;
        # the trimmed vote does not.
        per_tree = [honest_stats(1) for _ in range(4)]
        per_tree.append({2: (1e9, 1e9)})
        summed = {}
        for stats in per_tree:
            for m, (v, w) in stats.items():
                sv, sw = summed.get(m, (0.0, 0.0))
                summed[m] = (sv + v, sw + w)
        assert select_move(summed) == 2  # the sum vote is hijacked
        voted = trimmed_vote_stat_dicts(per_tree, trim=0.2)
        assert select_move(voted) == 1

    def test_shares_not_raw_mass_decide(self):
        # A tree with 10x the visits of its peers gets one vote's
        # worth of say, not ten -- even with trim=0 (plain mean of
        # shares), where the sum vote would follow the raw mass.
        per_tree = [honest_stats(1, visits=100.0) for _ in range(3)]
        per_tree.append(honest_stats(0, visits=1000.0))
        summed = {}
        for stats in per_tree:
            for m, (v, w) in stats.items():
                sv, sw = summed.get(m, (0.0, 0.0))
                summed[m] = (sv + v, sw + w)
        assert select_move(summed) == 0
        voted = trimmed_vote_stat_dicts(per_tree, trim=0.0)
        assert select_move(voted) == 1

    def test_empty_and_zero_visit_trees_abstain(self):
        per_tree = [honest_stats(1), {}, {0: (0.0, 0.0)}]
        voted = trimmed_vote_stat_dicts(per_tree)
        assert select_move(voted) == 1

    def test_all_abstaining_gives_empty_vote(self):
        assert trimmed_vote_stat_dicts([{}, {}]) == {}

    def test_trim_fraction_validated(self):
        with pytest.raises(ValueError, match="trim fraction"):
            trimmed_vote_stat_dicts([honest_stats(0)], trim=0.5)
        with pytest.raises(ValueError, match="trim fraction"):
            trimmed_vote_stat_dicts([honest_stats(0)], trim=-0.1)

    def test_small_ensembles_fall_back_to_plain_mean(self):
        # With n=2 and trim=0.4, 2*k == 0 -- nothing can be trimmed
        # without emptying the vote, so the full mean is used.
        per_tree = [honest_stats(1), honest_stats(0)]
        voted = trimmed_vote_stat_dicts(per_tree, trim=0.4)
        assert set(voted) == {0, 1, 2}

    def test_win_bound_invariant_survives_the_vote(self):
        per_tree = [honest_stats(i % 3) for i in range(7)]
        voted = trimmed_vote_stat_dicts(per_tree)
        assert audit_root_stats(voted) is None

    def test_total_mass_comparable_to_sum_vote(self):
        per_tree = [honest_stats(1) for _ in range(4)]
        voted = trimmed_vote_stat_dicts(per_tree, trim=0.0)
        ensemble_total = sum(
            v for stats in per_tree for v, _ in stats.values()
        )
        voted_total = sum(v for v, _ in voted.values())
        assert voted_total == pytest.approx(ensemble_total)


class TestTrimmedVoteOverTrees:
    def make_tree(self, seed):
        tree = SearchTree(
            GAME, GAME.initial_state(), XorShift64Star(seed)
        )
        for _ in range(20):
            node, _ = tree.select_expand()
            tree.backprop_winner(node, 0)
        return tree

    def test_matches_stat_dict_form(self):
        # The engines' one vote dispatch over a store of whole trees.
        trees = [self.make_tree(s) for s in range(1, 5)]
        engine = RootParallelMcts(GAME, seed=1, n_trees=4, vote="trimmed")
        stats, voted = engine._vote_stats(NodeForest(trees))
        per_tree = [t.root_stats() for t in trees]
        assert voted == trimmed_vote_stat_dicts(per_tree)
        assert stats == aggregate_stat_dicts(per_tree)
        _, kept = engine._vote_stats(NodeForest(trees), [0, 2, 3])
        assert kept == trimmed_vote_stat_dicts(
            [per_tree[0], per_tree[2], per_tree[3]]
        )


class TestIntegrityPolicy:
    def test_defaults_are_fully_armed(self):
        policy = IntegrityPolicy()
        assert policy.validate_results
        assert policy.audit_every > 0
        assert policy.quarantine

    def test_disabled_turns_everything_off(self):
        policy = IntegrityPolicy.disabled()
        assert not policy.validate_results
        assert not policy.audit_every
        assert not policy.quarantine

    def test_coerce_accepts_dict_none_and_policy(self):
        assert IntegrityPolicy.coerce(None) == IntegrityPolicy()
        assert IntegrityPolicy.coerce(
            {"audit_every": 4}
        ) == IntegrityPolicy(audit_every=4)
        policy = IntegrityPolicy(quarantine=False)
        assert IntegrityPolicy.coerce(policy) is policy

    def test_coerce_rejects_foreign_types(self):
        with pytest.raises(TypeError, match="integrity policy"):
            IntegrityPolicy.coerce("defended")

    def test_negative_knobs_rejected(self):
        with pytest.raises(ValueError, match="audit_every"):
            IntegrityPolicy(audit_every=-1)


class TestAuditRootStats:
    def test_clean_stats_pass(self):
        assert audit_root_stats(honest_stats(1)) is None

    def test_wins_exceeding_visits_flagged(self):
        reason = audit_root_stats({4: (10.0, 11.0)})
        assert "exceed" in reason

    def test_non_finite_flagged(self):
        assert audit_root_stats({4: (float("nan"), 0.0)}) is not None
        assert audit_root_stats({4: (1.0, float("inf"))}) is not None

    def test_negative_values_flagged(self):
        assert audit_root_stats({4: (-1.0, 0.0)}) is not None
        assert audit_root_stats({4: (1.0, -0.5)}) is not None

    def test_illegal_move_flagged_when_legal_set_given(self):
        stats = {9: (5.0, 2.0)}
        assert audit_root_stats(stats, legal_moves={0, 1}) is not None
        assert audit_root_stats(stats, legal_moves={9}) is None
