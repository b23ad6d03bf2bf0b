"""Shared harness plumbing: scheme grids, scaling tiers, result bases.

Every experiment comes in three tiers:

* ``quick``   -- seconds; used by the pytest-benchmark targets and CI.
* ``default`` -- minutes; enough samples for the figure *shapes*.
* ``full``    -- the closest laptop-feasible approximation of the
  paper's sweep ranges (hours); documented in EXPERIMENTS.md.

The tier is chosen per-call or via the ``REPRO_TIER`` environment
variable.

Every engine, player and cohort executor an experiment runs is built
with no stack spelled, so the figures run the default stack
(:func:`repro.core.backend.default_stack`): arena + compiled wherever
the C kernels exist, node + numpy elsewhere.  The two play the same
games seed for seed (``tests/harness/test_golden_tables.py``), so which
one ran changes how long a figure takes, never what it shows.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

from repro.arena.tournament import PlayerFactory
from repro.core.base import BatchExecutor
from repro.core.spec import make_engine
from repro.games.base import Game
from repro.players import MctsPlayer

TIERS = ("quick", "default", "full")


def resolve_tier(tier: str | None = None) -> str:
    """Explicit argument beats ``REPRO_TIER`` beats ``default``."""
    chosen = tier or os.environ.get("REPRO_TIER", "default")
    if chosen not in TIERS:
        raise ValueError(
            f"unknown tier {chosen!r}; available: {TIERS}"
        )
    return chosen


@dataclass(frozen=True)
class Scheme:
    """A named GPU parallelisation scheme at a given block size."""

    kind: str  # "leaf" | "block"
    block_size: int

    def __post_init__(self) -> None:
        if self.kind not in ("leaf", "block"):
            raise ValueError(f"unknown scheme kind {self.kind!r}")
        if self.block_size <= 0:
            raise ValueError(
                f"block_size must be positive: {self.block_size}"
            )

    @property
    def label(self) -> str:
        return f"{self.kind}(bs={self.block_size})"

    def grid_for(self, threads: int) -> tuple[int, int]:
        """(blocks, threads_per_block) covering ``threads`` total.

        Fewer threads than one block: a single partial block, exactly
        how the paper's sweep launches its 1..16-thread points.
        """
        if threads <= 0:
            raise ValueError(f"threads must be positive: {threads}")
        if threads <= self.block_size:
            return 1, threads
        if threads % self.block_size:
            raise ValueError(
                f"{threads} threads do not divide into blocks of "
                f"{self.block_size}"
            )
        return threads // self.block_size, self.block_size


#: The three configurations the paper sweeps in Figures 5 and 6.
PAPER_SCHEMES = (
    Scheme("leaf", 64),
    Scheme("block", 32),
    Scheme("block", 128),
)

#: The paper's Figure 5/6 x-axis.
PAPER_THREAD_SWEEP = (
    1, 2, 4, 8, 16, 32, 64, 128, 256, 512,
    1024, 2048, 4096, 7168, 14336,
)

#: The paper's multi-GPU configuration (Figure 9).
PAPER_MULTIGPU_BLOCKS = 112
PAPER_MULTIGPU_TPB = 64


def mcts_player(
    game: Game,
    spec,
    budget_s: float,
    name: str | None = None,
    **engine_kwargs,
) -> PlayerFactory:
    """The arena's ``seed -> player`` factory for a player that
    searches ``budget_s`` virtual seconds per move on ``spec``'s
    engine."""

    def build(seed: int) -> MctsPlayer:
        subject = make_engine(spec, game, seed, **engine_kwargs)
        return MctsPlayer(game, subject, budget_s, name=name)

    return build


def cohort_executor(game: Game, seed: int) -> BatchExecutor:
    """The merged-playout executor of one cohort of ``game`` matches."""
    return BatchExecutor(game.name, seed)
