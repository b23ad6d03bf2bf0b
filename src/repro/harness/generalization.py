"""Generalization experiment: block parallelism beyond Reversi.

The paper's future-work section asks whether the algorithm transfers to
other domains.  This experiment replays the Figure 6 comparison (leaf
vs block parallelism against a 1-core sequential player, equal virtual
move time) on Connect-4 and Breakthrough: the *relationships* -- GPU
schemes beating the sequential baseline, block at least matching leaf
-- should survive the domain change even though the games' branching
factors and lengths differ.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.arena.cohort import play_matchups
from repro.games import make_game
from repro.gpu import TESLA_C2050, DeviceSpec
from repro.harness.common import cohort_executor, mcts_player, resolve_tier
from repro.util.seeding import derive_seed
from repro.util.tables import format_table


@dataclass(frozen=True)
class GeneralizationConfig:
    games: tuple[str, ...] = ("connect4", "breakthrough")
    blocks: int = 8
    tpb: int = 32
    games_per_point: int = 6
    move_budget_s: float = 0.012
    device: DeviceSpec = TESLA_C2050
    seed: int = 85_2011

    @staticmethod
    def for_tier(tier: str | None = None) -> "GeneralizationConfig":
        tier = resolve_tier(tier)
        if tier == "quick":
            return GeneralizationConfig(
                games=("connect4",),
                blocks=4,
                games_per_point=4,
                move_budget_s=0.008,
            )
        if tier == "full":
            return GeneralizationConfig(
                games_per_point=16, move_budget_s=0.024
            )
        return GeneralizationConfig()


@dataclass
class GeneralizationResult:
    config: GeneralizationConfig
    #: (game, scheme) -> win ratio vs the sequential baseline.
    win_ratio: dict[tuple[str, str], float] = field(default_factory=dict)
    intervals: dict[tuple[str, str], tuple[float, float]] = field(
        default_factory=dict
    )

    def render(self) -> str:
        rows = []
        for (game_name, scheme), ratio in sorted(self.win_ratio.items()):
            lo, hi = self.intervals[(game_name, scheme)]
            rows.append(
                [game_name, scheme, f"{ratio:.2f}", f"[{lo:.2f},{hi:.2f}]"]
            )
        return format_table(
            ["game", "scheme", "win ratio vs cpu-1", "95% CI"],
            rows,
            title=(
                "Generalization: GPU schemes on other domains "
                f"({self.config.blocks}x{self.config.tpb}, "
                f"{self.config.games_per_point} games/cell)"
            ),
        )


def run_generalization(
    config: GeneralizationConfig | None = None,
) -> GeneralizationResult:
    cfg = config or GeneralizationConfig.for_tier()
    out = GeneralizationResult(config=cfg)
    for game_name in cfg.games:
        game = make_game(game_name)
        results = play_matchups(
            game,
            {
                scheme: mcts_player(
                    game,
                    f"{scheme}:{cfg.blocks}x{cfg.tpb}",
                    cfg.move_budget_s,
                    device=cfg.device,
                )
                for scheme in ("block", "leaf")
            },
            mcts_player(game, "sequential", cfg.move_budget_s),
            cfg.games_per_point,
            lambda scheme, g, role: derive_seed(
                cfg.seed, game_name, scheme, g, role[0]
            ),
            cohort_executor(game, derive_seed(cfg.seed, game_name, "x")),
        )
        for scheme, result in results.items():
            out.win_ratio[(game_name, scheme)] = result.win_ratio
            out.intervals[(game_name, scheme)] = result.win_ratio_ci()
    return out
