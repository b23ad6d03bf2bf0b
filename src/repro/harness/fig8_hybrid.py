"""Figure 8: hybrid CPU/GPU vs GPU-only -- points and tree depth.

The paper's two-panel figure: per game step, (left) the points achieved
against the sequential opponent and (right) the maximum tree depth
reached by the subject's search.  The hybrid engine overlaps CPU
iterations with the asynchronous kernel, so its trees are deeper and
its endgame stronger -- the two claims this experiment checks.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.arena.cohort import play_matchups
from repro.games import Reversi
from repro.gpu import TESLA_C2050, DeviceSpec
from repro.harness.common import cohort_executor, mcts_player, resolve_tier
from repro.util.seeding import derive_seed
from repro.util.tables import ascii_chart, format_series


@dataclass(frozen=True)
class Fig8Config:
    blocks: int = 16
    tpb: int = 32
    games_per_series: int = 5
    move_budget_s: float = 0.036
    steps: int = 60
    device: DeviceSpec = TESLA_C2050
    seed: int = 80_2011

    @staticmethod
    def for_tier(tier: str | None = None) -> "Fig8Config":
        tier = resolve_tier(tier)
        if tier == "quick":
            return Fig8Config(
                blocks=4, games_per_series=2, move_budget_s=0.012
            )
        if tier == "full":
            return Fig8Config(
                blocks=56,
                tpb=64,
                games_per_series=10,
                move_budget_s=0.096,
            )
        return Fig8Config()


@dataclass
class Fig8Result:
    config: Fig8Config
    points: dict[str, np.ndarray] = field(default_factory=dict)
    depth: dict[str, np.ndarray] = field(default_factory=dict)

    def render(self, step_stride: int = 8) -> str:
        steps = list(range(1, self.config.steps + 1, step_stride))
        if steps[-1] != self.config.steps:
            steps.append(self.config.steps)
        series = {}
        for label in self.points:
            series[f"{label} pts"] = [
                f"{self.points[label][s - 1]:+.1f}" for s in steps
            ]
            series[f"{label} depth"] = [
                f"{self.depth[label][s - 1]:.1f}" for s in steps
            ]
        table = format_series(
            "step",
            steps,
            series,
            title=(
                "Figure 8 reproduction: hybrid CPU/GPU vs GPU-only "
                "(points vs sequential opponent; subject max tree depth)"
            ),
        )
        chart = ascii_chart(
            {k: list(v) for k, v in self.depth.items()},
            title="subject max tree depth vs game step:",
        )
        return f"{table}\n\n{chart}"


def run_fig8(config: Fig8Config | None = None) -> Fig8Result:
    cfg = config or Fig8Config.for_tier()
    game = Reversi()

    results = play_matchups(
        game,
        {
            kind: mcts_player(
                game,
                f"{family}:{cfg.blocks}x{cfg.tpb}",
                cfg.move_budget_s,
                name=kind,
                device=cfg.device,
            )
            for kind, family in (("GPU", "block"), ("GPU + CPU", "hybrid"))
        },
        mcts_player(game, "sequential", cfg.move_budget_s),
        cfg.games_per_series,
        lambda kind, g, role: derive_seed(cfg.seed, kind, g, role[0]),
        cohort_executor(game, derive_seed(cfg.seed, "executor")),
    )

    out = Fig8Result(config=cfg)
    for kind, result in results.items():
        out.points[kind] = result.score_series(cfg.steps)
        out.depth[kind] = result.depth_series(cfg.steps)
    return out
