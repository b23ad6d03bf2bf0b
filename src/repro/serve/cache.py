"""The cluster router's Zobrist-keyed result cache.

This is the one result cache: :class:`~repro.serve.cluster.ClusterRouter`
consults it at arrival, and a single node that wants caching runs as a
one-shard router (``ClusterRouter(n_shards=1, cache=True)``).

Skewed traffic from millions of users asks for the *same positions*
over and over (the Zipfian tail of openings and famous middlegames).
The :class:`ResultCache` answers a duplicate request without running a
search: entries are keyed by the request's **canonical position key**
(the game's Zobrist hash, :meth:`repro.games.base.Game.zobrist_key`)
together with the engine spec and budget that produced the result, so
a hit is exactly "the same search of the same position".  The spec is
keyed without its stack (``@node`` / ``@arena`` / ``@numpy`` /
``@compiled``): every stack returns the bit-identical result, so
``tree:2``, ``tree:2@node`` and ``tree:2@arena@numpy`` share one line.

Semantics (all deterministic, on the cluster's virtual arrival
timeline -- see docs/cluster.md):

* **Bounded LRU.**  At most ``CACHE_CAPACITY`` entries; inserting past the
  bound evicts the least-recently *used* key (hits refresh recency).
* **Integrity screening on insert.**  A result only enters the cache
  if it passes the position-aware screen in :func:`screen_result`
  (chosen move legal in the position, statistics well-formed).  A
  Byzantine shard can corrupt one tenant's answer; the screen keeps
  it from *amplifying* through the cache to every duplicate request.

The request's *seed* is deliberately not part of the key: two users
asking for the same search of the same position differ only in their
RNG stream, and the cache's whole point is to answer the second user
with the first user's search.  Runs that must be bit-identical to a
cache-less service simply run with the cache off (the cluster
differential pin does exactly that).
"""

from __future__ import annotations

import functools
import math
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import NamedTuple

from repro.core.results import SearchResult
from repro.core.spec import EngineSpec, canonical_spec
from repro.games import make_game
from repro.games.base import Game, GameState
from repro.util.coerce import coerce_optional

#: Virtual cost of answering a request from the result cache (lookup
#: + response serialisation; no search, no device time).
CACHE_HIT_COST_S = 2e-5
#: Entries one cache holds; inserting past it evicts the least
#: recently used key.
CACHE_CAPACITY = 4096


class CacheKey(NamedTuple):
    """Canonical identity of one search: position + spec + budget."""

    game: str
    zobrist: int
    spec: str
    budget_s: float


#: Spec params that pick the stack, which does not change the result.
_STACK_PARAMS = ("backend", "playout")


@functools.lru_cache(maxsize=256)
def _unstacked(canonical: str) -> str:
    """A canonical spec string without its stack modifiers."""
    spec = EngineSpec.parse(canonical)
    params = {
        k: v
        for k, v in spec.params.items()
        if k not in _STACK_PARAMS
    }
    return EngineSpec(spec.kind, params).canonical()


def _spec_key(engine) -> str:
    """The spec part of a cache key: the canonical spec without its
    stack.  A dict spec with keyword parameters the string grammar
    cannot carry (``{"kind": "sequential", "ucb_c": 2.0}``) keys on its
    kind plus its sorted non-stack params."""
    if isinstance(engine, str):
        return _unstacked(canonical_spec(engine))
    spec = EngineSpec.coerce(engine)
    try:
        canonical = spec.canonical()
    except ValueError:
        params = sorted(
            (k, v)
            for k, v in spec.params.items()
            if k not in _STACK_PARAMS
        )
        return f"{spec.kind}{params}"
    return _unstacked(canonical)


def cache_key_for(
    game: Game, state: GameState, engine, budget_s: float
) -> CacheKey:
    """The cache key of one request against ``game``: the canonical
    spec without its stack, which does not change the result."""
    return CacheKey(
        game=game.name,
        zobrist=game.zobrist_key(state),
        spec=_spec_key(engine),
        budget_s=float(budget_s),
    )


def screen_result(
    game: Game, state: GameState, result: SearchResult
) -> bool:
    """Position-aware integrity screen for a result entering the cache.

    Checks the *contract* a legitimate search of ``state`` must
    satisfy: the chosen move and every root-statistics move are legal
    in the position, visit/win masses are finite and non-negative,
    and wins never exceed visits.  Cheap (one legal-move computation)
    and state-free; corrupt results are refused, never raised.
    """
    if result is None:
        return False
    legal = set(game.legal_moves(state))
    if result.move not in legal:
        return False
    for move, (visits, wins) in result.stats.items():
        if move not in legal:
            return False
        if not (math.isfinite(visits) and math.isfinite(wins)):
            return False
        if visits < 0 or wins < 0 or wins > visits + 1e-9:
            return False
    if result.simulations < 0 or result.iterations < 0:
        return False
    return True


@dataclass
class CacheEntry:
    """One cached search outcome."""

    result: SearchResult
    #: Virtual time the producing search completed.
    inserted_s: float
    hits: int = 0


@dataclass
class ResultCache:
    """Bounded-LRU, screened result cache.

    All counters are cumulative over the cache's lifetime so a cluster
    run can report hit rates and screening refusals.
    """

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    #: Results refused by the integrity screen at insert.
    screened_out: int = 0
    _entries: "OrderedDict[CacheKey, CacheEntry]" = field(
        default_factory=OrderedDict, repr=False
    )
    _games: dict[str, Game] = field(default_factory=dict, repr=False)

    def __len__(self) -> int:
        return len(self._entries)

    def _game(self, name: str) -> Game:
        game = self._games.get(name)
        if game is None:
            game = make_game(name)
            self._games[name] = game
        return game

    def lookup(self, key: CacheKey, now_s: float) -> CacheEntry | None:
        """The entry under ``key``, or ``None`` (a miss).  A hit
        refreshes LRU recency and counts.  ``now_s``, the virtual time
        of the look-up, changes nothing: entries do not expire."""
        entry = self._entries.get(key)
        if entry is None:
            self.misses += 1
            return None
        self._entries.move_to_end(key)
        self.hits += 1
        entry.hits += 1
        return entry

    def insert(
        self,
        key: CacheKey,
        state: GameState,
        result: SearchResult,
        now_s: float,
    ) -> bool:
        """Screen ``result`` and (if clean) cache it under ``key``.

        Returns whether the result was admitted.  Inserting over an
        existing key replaces it (freshest search wins) and refreshes
        recency; growing past ``CACHE_CAPACITY`` evicts LRU keys.
        """
        if not screen_result(self._game(key.game), state, result):
            self.screened_out += 1
            return False
        self._entries[key] = CacheEntry(
            result=result, inserted_s=now_s
        )
        self._entries.move_to_end(key)
        while len(self._entries) > CACHE_CAPACITY:
            self._entries.popitem(last=False)
            self.evictions += 1
        return True

    @property
    def hit_rate(self) -> float:
        """Hits over lookups (0.0 before any lookup)."""
        total = self.hits + self.misses
        if total == 0:
            return 0.0
        return self.hits / total

    coerce = classmethod(coerce_optional)
