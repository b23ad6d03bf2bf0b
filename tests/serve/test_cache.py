"""The Zobrist-keyed result cache: LRU bound, TTL, screening."""

import pytest

from repro.core import spec
from repro.core.results import SearchResult
from repro.core.spec import EngineSpec
from repro.games import make_game
from repro.serve import cache as cache_module
from repro.serve import ClusterRouter
from repro.serve.cache import (
    CacheKey,
    ResultCache,
    cache_key_for,
    screen_result,
)
from repro.serve.request import SearchRequest


def result_for(game, state, budget=0.002):
    """A well-formed search result for ``state``."""
    moves = game.legal_moves(state)
    stats = {m: (4.0 + i, 2.0) for i, m in enumerate(moves[:3])}
    best = max(stats, key=lambda m: stats[m][0])
    return SearchResult(
        move=best,
        stats=stats,
        iterations=10,
        simulations=10,
        max_depth=3,
        tree_nodes=11,
        elapsed_s=budget,
        engine="sequential",
    )


@pytest.fixture
def game():
    return make_game("tictactoe")


@pytest.fixture
def state(game):
    return game.initial_state()


def key_of(game, state, spec="sequential", budget=0.002):
    return cache_key_for(game, state, spec, budget)


def test_cache_key_is_positional_not_textual(game, state):
    # Same position reached through different move orders: same key.
    a = game.apply(game.apply(game.apply(state, 0), 4), 8)
    b = game.apply(game.apply(game.apply(state, 8), 4), 0)
    assert key_of(game, a) == key_of(game, b)
    # Different spec or budget: different key.
    assert key_of(game, a) != key_of(game, a, spec="root:2")
    assert key_of(game, a) != key_of(game, a, budget=0.004)


def test_key_for_defaults_to_initial_state(game, state):
    # The router keys a ``state=None`` request as the initial position.
    cache = ResultCache()
    router = ClusterRouter(n_shards=1, seed=1, cache=cache)
    router.submit(
        SearchRequest(
            request_id="r0",
            game="tictactoe",
            engine="sequential",
            budget_s=0.002,
            seed=1,
        )
    )
    (record,) = router.run()
    entry = cache.lookup(key_of(game, state), record.finish_s)
    assert entry is not None and entry.result is record.result


def test_spec_canonicalisation_shares_entries(game, state):
    # Equivalent spec spellings canonicalise to one cache line.
    assert key_of(game, state, spec="tree:2@vloss") == key_of(
        game, state, spec="tree:2"
    )
    # The stack does not change the result, so a key leaves it out.
    for text in ("tree:2", "tree:2@node", "tree:2@arena@numpy"):
        assert key_of(game, state, spec=text).spec == "tree:2"


def test_spec_spellings_share_a_key_cold_and_warm(game, state):
    """The canonical string is remembered per spelling: equivalent
    spellings meet in one key on the first look-up and on later ones,
    and a non-string spec takes the unmemoised path to the same key."""
    spec.canonical_spec.cache_clear()
    spellings = ("block:4x32@compiled@arena", "block:4x32@arena@compiled")
    cold = [key_of(game, state, spec=s) for s in spellings]
    assert spec.canonical_spec.cache_info().misses == 2
    warm = [key_of(game, state, spec=s) for s in spellings]
    assert spec.canonical_spec.cache_info().hits == 2
    assert len(set(cold + warm)) == 1
    assert cold[0].spec == "block:4x32"
    assert key_of(game, state, spec=EngineSpec.parse(spellings[0])) == cold[0]
    as_dict = {
        "kind": "block", "blocks": 4, "threads_per_block": 32,
        "backend": "arena", "playout": "compiled",
    }
    assert key_of(game, state, spec=as_dict) == cold[0]
    with pytest.raises(ValueError, match="unknown engine kind"):
        key_of(game, state, spec="nonesuch:2")


def test_hit_miss_and_lru_eviction(game, state, monkeypatch):
    # Eviction at test size: a two-entry bound instead of 4 096.
    monkeypatch.setattr(cache_module, "CACHE_CAPACITY", 2)
    cache = ResultCache()
    states = [state, game.apply(state, 0), game.apply(state, 4)]
    keys = [key_of(game, s) for s in states]
    for k, s in zip(keys[:2], states[:2]):
        assert cache.insert(k, s, result_for(game, s), now_s=0.0)
    assert cache.lookup(keys[0], 1.0) is not None  # refreshes LRU
    assert cache.insert(
        keys[2], states[2], result_for(game, states[2]), now_s=1.0
    )
    # keys[1] was least recently used -> evicted.
    assert cache.lookup(keys[1], 1.0) is None
    assert cache.lookup(keys[0], 1.0) is not None
    assert cache.evictions == 1
    assert cache.hits == 2 and cache.misses == 1


def test_ttl_expiry(game, state):
    cache = ResultCache(ttl_s=1.0)
    key = key_of(game, state)
    cache.insert(key, state, result_for(game, state), now_s=0.0)
    assert cache.lookup(key, 0.5) is not None
    assert cache.lookup(key, 1.6) is None  # expired and removed
    assert cache.expirations == 1
    assert len(cache) == 0


def test_screening_refuses_corrupt_results(game, state):
    cache = ResultCache()
    key = key_of(game, state)
    clean = result_for(game, state)

    # Illegal chosen move (Byzantine shard fabricated an answer).
    from dataclasses import replace

    bad_move = replace(clean, move=99)
    assert not cache.insert(key, state, bad_move, now_s=0.0)
    # Illegal move in the stats.
    bad_stats = replace(clean, stats={99: (1.0, 0.5)}, move=99)
    assert not cache.insert(key, state, bad_stats, now_s=0.0)
    # Non-finite visit mass.
    nan_stats = replace(
        clean, stats={clean.move: (float("nan"), 0.0)}
    )
    assert not cache.insert(key, state, nan_stats, now_s=0.0)
    # Wins exceeding visits.
    inflated = replace(clean, stats={clean.move: (1.0, 5.0)})
    assert not cache.insert(key, state, inflated, now_s=0.0)
    assert cache.screened_out == 4
    assert len(cache) == 0

    assert cache.insert(key, state, clean, now_s=0.0)
    assert cache.lookup(key, 0.0).result is clean


def test_screen_result_contract(game, state):
    assert screen_result(game, state, result_for(game, state))
    assert not screen_result(game, state, None)


def test_hit_rate_and_coerce(game, state):
    cache = ResultCache()
    key = key_of(game, state)
    assert cache.hit_rate == 0.0
    cache.insert(key, state, result_for(game, state), now_s=0.0)
    cache.lookup(key, 0.0)
    cache.lookup(CacheKey("tictactoe", 1, "sequential", 0.1), 0.0)
    assert cache.hit_rate == pytest.approx(0.5)

    assert ResultCache.coerce(None) is None
    assert ResultCache.coerce(False) is None
    assert isinstance(ResultCache.coerce(True), ResultCache)
    assert ResultCache.coerce({"ttl_s": 7.0}).ttl_s == 7.0
    assert ResultCache.coerce(cache) is cache
    with pytest.raises(TypeError):
        ResultCache.coerce(3.14)
    with pytest.raises(ValueError):
        ResultCache(ttl_s=0.0)


def test_sweep_ages_out_without_counting_misses(game, state):
    cache = ResultCache(ttl_s=1.0)
    other = game.apply(state, 4)
    cache.insert(key_of(game, state), state, result_for(game, state), now_s=0.0)
    cache.insert(
        key_of(game, other), other, result_for(game, other), now_s=0.8
    )
    assert len(cache) == 2
    # At t=1.5 only the t=0.0 entry is past its TTL.
    assert cache.sweep(1.5) == 1
    assert len(cache) == 1
    assert cache.expirations == 1
    assert cache.misses == 0  # sweep is not a lookup
    assert cache.lookup(key_of(game, other), 1.5) is not None
    # No TTL -> sweep is a no-op.
    assert ResultCache().sweep(100.0) == 0
