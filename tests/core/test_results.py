"""Tests for the SearchResult record."""

from repro.core.results import SearchResult


def make_result(stats):
    return SearchResult(
        move=0,
        stats=stats,
        iterations=10,
        simulations=100,
        max_depth=3,
        tree_nodes=50,
        elapsed_s=0.5,
    )


class TestSearchResult:
    def test_root_visits_sums(self):
        res = make_result({0: (30, 10), 1: (70, 40)})
        assert res.root_visits == 100

    def test_defaults(self):
        res = make_result({0: (1, 1)})
        assert res.trees == 1
        assert res.extras == {}
