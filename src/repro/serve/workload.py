"""Deterministic load generation for the search service.

Builds mixed workloads -- several games, several engine specs, varied
budgets -- from a single seed, so benchmark runs are exactly
reproducible.  Used by ``python -m repro serve-bench`` and
``tests/gates/test_serve.py``.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass

from repro.core.spec import with_stack
from repro.serve.request import SearchRequest
from repro.util.seeding import derive_seed

#: Engine specs a mixed workload cycles through: CPU round engines
#: (merged into wide launches) plus a direct-path GPU engine.
MIXED_ENGINES = (
    "sequential",
    "root:4",
    "tree:2",
    "sequential",
    "root:8",
    "block:8x32",
)

#: Games a mixed workload cycles through, with per-game engine budgets
#: (virtual seconds on the request's private engine clock).
MIXED_GAMES = ("reversi", "tictactoe", "connect4")
DEFAULT_BUDGETS = {
    "reversi": 0.004,
    "tictactoe": 0.002,
    "connect4": 0.003,
}


@dataclass(frozen=True)
class WorkloadConfig:
    """Shape of one generated workload: a closed batch, every request
    arriving at 0 with id ``f"r{i:03d}"``."""

    n_requests: int = 64
    seed: int = 2011
    games: tuple[str, ...] = MIXED_GAMES
    engines: tuple[str, ...] = MIXED_ENGINES
    #: Scale factor on the per-game default budgets.
    budget_scale: float = 1.0
    #: Relative completion deadline on the service clock (None = no
    #: deadline).
    deadline_s: float | None = 2.0
    #: Tree backend suffixed onto every engine spec (``@node`` /
    #: ``@arena``); None leaves the spec strings untouched, and each
    #: request runs its game's default stack.
    backend: str | None = None
    #: Playout executor suffixed onto every engine spec (``@numpy`` /
    #: ``@compiled``); None leaves the spec strings untouched.
    playout: str | None = None
    #: Zipf exponent for duplicate-position traffic.  ``0.0`` with no
    #: :attr:`position_pool` keeps the legacy workload (every request
    #: searches its game's initial position).  With a pool, request
    #: positions are drawn from ``position_pool`` deterministic
    #: random-walk positions per game, rank ``r`` weighted
    #: ``1/(r+1)**position_skew`` -- the higher the skew, the more the
    #: traffic concentrates on a few hot positions (what a cluster's
    #: result cache feeds on; see docs/cluster.md).
    position_skew: float = 0.0
    #: Distinct candidate positions per game (0 = legacy
    #: initial-position workload; ``position_skew > 0`` defaults it
    #: to 32).
    position_pool: int = 0

    def __post_init__(self) -> None:
        from repro.core.backend import validate_backend
        from repro.core.executors import validate_playout

        if self.n_requests <= 0:
            raise ValueError(
                f"n_requests must be positive: {self.n_requests}"
            )
        if self.budget_scale <= 0:
            raise ValueError(
                f"budget_scale must be positive: {self.budget_scale}"
            )
        if self.position_skew < 0:
            raise ValueError(
                f"position_skew cannot be negative: "
                f"{self.position_skew}"
            )
        if self.position_pool < 0:
            raise ValueError(
                f"position_pool cannot be negative: "
                f"{self.position_pool}"
            )
        if self.backend is not None:
            validate_backend(self.backend)
        if self.playout is not None:
            validate_playout(self.playout)

    @property
    def effective_position_pool(self) -> int:
        if self.position_pool:
            return self.position_pool
        return 32 if self.position_skew > 0 else 0


def _walk_position(game, plies: int, seed: int):
    """The position ``plies`` random moves into one game, stopping
    early at (just before) a terminal position."""
    state = game.initial_state()
    for step in range(plies):
        if game.is_terminal(state):
            break
        moves = game.legal_moves(state)
        state = game.apply(
            state, moves[derive_seed(seed, step) % len(moves)]
        )
        if game.is_terminal(state):
            # Requests must search a live position; back off.
            return _walk_position(game, plies - 1, seed)
    return state


def _position_pool(game_name: str, pool: int, seed: int) -> list:
    """``pool`` deterministic positions of ``game_name`` at mixed
    depths (rank 0 is the initial position -- the hottest key)."""
    from repro.games import make_game

    game = make_game(game_name)
    # Rank 0 is the initial position (the canonical hot key under
    # skew); later ranks walk 2-9 plies deep with per-rank move
    # streams, so they are distinct with overwhelming probability.
    return [
        _walk_position(
            game,
            0 if rank == 0 else 2 + (rank - 1) % 8,
            derive_seed(seed, "position", game_name, rank),
        )
        for rank in range(pool)
    ]


def _zipf_cdf(pool: int, skew: float) -> list[float]:
    weights = [1.0 / (rank + 1) ** skew for rank in range(pool)]
    total = sum(weights)
    cdf, acc = [], 0.0
    for w in weights:
        acc += w / total
        cdf.append(acc)
    return cdf


def _shaped_engines(config: WorkloadConfig) -> tuple:
    """``config.engines`` with the workload's backend / playout applied,
    each entry rewritten once (a stack modifier the spec spells itself
    wins -- and is kept verbatim so request strings stay stable)."""
    engines = []
    for engine in config.engines:
        rewritten = with_stack(engine, config.backend, config.playout)
        engines.append(
            engine if rewritten is engine else rewritten.canonical()
        )
    return tuple(engines)


def shape_tables(config: WorkloadConfig) -> tuple[dict, list[float], tuple]:
    """The per-game position pools, Zipf CDF and rewritten engine specs
    one workload shape draws from.  Shared with the open-loop trace
    generator (:mod:`repro.serve.overload`), which reuses this machinery
    for request *shape* while supplying its own arrival process."""
    pool = config.effective_position_pool
    positions = (
        {
            name: _position_pool(name, pool, config.seed)
            for name in set(config.games)
        }
        if pool
        else {}
    )
    cdf = _zipf_cdf(pool, config.position_skew) if pool else []
    return positions, cdf, _shaped_engines(config)


def shape_request(
    config: WorkloadConfig,
    i: int,
    positions: dict,
    cdf: list[float],
    engines: tuple,
) -> tuple:
    """``(game, engine, budget_s, state)`` of request ``i`` under
    ``config``'s shape machinery (game/engine cycling over ``engines``,
    Zipf position skew), from the tables of :func:`shape_tables`."""
    pool = config.effective_position_pool
    game = config.games[i % len(config.games)]
    engine = engines[i % len(engines)]
    state = None
    if pool:
        u = derive_seed(config.seed, "zipf", i) / 2.0**64
        rank = min(bisect.bisect_left(cdf, u), pool - 1)
        state = positions[game][rank]
    budget = DEFAULT_BUDGETS[game] * config.budget_scale
    return game, engine, budget, state


def make_workload(config: WorkloadConfig) -> list[SearchRequest]:
    """The workload: ``n_requests`` mixed searches, fully determined
    by ``config`` (and therefore by its seed)."""
    requests = []
    tables = shape_tables(config)
    for i in range(config.n_requests):
        game, engine, budget, state = shape_request(config, i, *tables)
        requests.append(
            SearchRequest(
                request_id=f"r{i:03d}",
                game=game,
                engine=engine,
                budget_s=budget,
                seed=derive_seed(config.seed, "request", i),
                deadline_s=config.deadline_s,
                state=state,
            )
        )
    return requests
