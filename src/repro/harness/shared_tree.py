"""Shared-tree shootout: strength of the five CPU-side engine shapes.

Pits the shared-tree family -- ``tree:N`` (virtual loss), ``tree:N@wuct``
(WU-UCT accounting) and ``pipeline:N`` (3PMCTS staging) -- against the
independent-tree baselines ``root:N`` and ``block:1xN`` at equal worker
count and equal virtual move budget.  Every contender plays the same
opponent the paper's Figure 6 uses: sequential MCTS on one virtual CPU
core, both sides getting the same move time.  All games run in one
cohort so the CPU searches batch their playouts.

The claim under test (WU-UCT, arXiv:1810.11755): once enough workers
are in flight, folding incomplete visits into the *exploration* term
only -- instead of poisoning the mean as virtual loss does -- preserves
search quality, so ``@wuct`` should match or beat ``@vloss`` as N
grows.  The pipeline trades one round of staleness for select/playout
overlap, buying extra iterations at the same budget.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.arena.cohort import play_matchups
from repro.games import make_game
from repro.harness.common import cohort_executor, mcts_player, resolve_tier
from repro.util.seeding import derive_seed
from repro.util.tables import format_series

#: label -> spec template; ``{n}`` is the worker count.
CONTENDERS = {
    "tree@vloss": "tree:{n}",
    "tree@wuct": "tree:{n}@wuct",
    "pipeline": "pipeline:{n}",
    "root": "root:{n}",
    "block": "block:1x{n}",
}


@dataclass(frozen=True)
class ShootoutConfig:
    games: tuple[str, ...] = ("reversi", "connect4")
    worker_counts: tuple[int, ...] = (4, 16)
    contenders: tuple[str, ...] = tuple(CONTENDERS)
    games_per_point: int = 8
    move_budget_s: float = 0.02
    seed: int = 23_1810
    max_plies: int | None = None

    def __post_init__(self) -> None:
        unknown = set(self.contenders) - set(CONTENDERS)
        if unknown:
            raise ValueError(
                f"unknown contenders {sorted(unknown)}; "
                f"available: {sorted(CONTENDERS)}"
            )

    @staticmethod
    def for_tier(tier: str | None = None) -> "ShootoutConfig":
        tier = resolve_tier(tier)
        if tier == "quick":
            return ShootoutConfig(
                games=("connect4",),
                worker_counts=(4,),
                contenders=("tree@vloss", "tree@wuct", "pipeline"),
                games_per_point=2,
                move_budget_s=0.004,
            )
        if tier == "full":
            return ShootoutConfig(
                worker_counts=(4, 16, 64),
                games_per_point=24,
                move_budget_s=0.04,
            )
        return ShootoutConfig()

    @staticmethod
    def smoke() -> "ShootoutConfig":
        """The CI gate: wuct vs vloss head-to-head readout at N=16."""
        return ShootoutConfig(
            games=("connect4",),
            worker_counts=(16,),
            contenders=("tree@vloss", "tree@wuct"),
            games_per_point=8,
            move_budget_s=0.008,
        )


@dataclass
class ShootoutResult:
    config: ShootoutConfig
    #: (game, label) -> win ratios aligned with worker_counts.
    win_ratio: dict[tuple[str, str], list[float]] = field(
        default_factory=dict
    )
    #: (game, label) -> (lo, hi) Wilson 95% intervals per point.
    intervals: dict[tuple[str, str], list[tuple[float, float]]] = field(
        default_factory=dict
    )

    def ratio(self, game: str, label: str, n_workers: int) -> float:
        i = self.config.worker_counts.index(n_workers)
        return self.win_ratio[(game, label)][i]

    def render(self) -> str:
        blocks = []
        for game_name in self.config.games:
            series = {}
            for label in self.config.contenders:
                key = (game_name, label)
                cells = []
                for ratio, (lo, hi) in zip(
                    self.win_ratio[key], self.intervals[key]
                ):
                    cells.append(f"{ratio:.2f} [{lo:.2f},{hi:.2f}]")
                series[label] = cells
            blocks.append(
                format_series(
                    "workers",
                    list(self.config.worker_counts),
                    series,
                    title=(
                        f"{game_name}: win ratio vs 1-core sequential "
                        f"({self.config.games_per_point} games/point, "
                        f"{self.config.move_budget_s * 1e3:.0f} ms/move"
                        " virtual)"
                    ),
                )
            )
        return "\n\n".join(blocks)


def run_shootout(config: ShootoutConfig | None = None) -> ShootoutResult:
    cfg = config or ShootoutConfig.for_tier()
    out = ShootoutResult(config=cfg)

    for game_name in cfg.games:
        game = make_game(game_name)
        results = play_matchups(
            game,
            {
                (label, n): mcts_player(
                    game,
                    CONTENDERS[label].format(n=n),
                    cfg.move_budget_s,
                    name=label,
                )
                for label in cfg.contenders
                for n in cfg.worker_counts
            },
            mcts_player(
                game, "sequential", cfg.move_budget_s, name="cpu-1"
            ),
            cfg.games_per_point,
            lambda key, g, role: derive_seed(
                cfg.seed, game_name, *key, g, role
            ),
            cohort_executor(
                game, derive_seed(cfg.seed, game_name, "executor")
            ),
            max_plies=cfg.max_plies,
        )
        for label in cfg.contenders:
            points = [results[label, n] for n in cfg.worker_counts]
            out.win_ratio[(game_name, label)] = [
                p.win_ratio for p in points
            ]
            out.intervals[(game_name, label)] = [
                p.win_ratio_ci() for p in points
            ]
    return out
