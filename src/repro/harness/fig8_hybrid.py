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

from repro.arena.cohort import play_games_cohort
from repro.arena.metrics import mean_depth_series, mean_score_series
from repro.core import make_engine
from repro.core.base import BatchExecutor
from repro.games import Reversi
from repro.gpu import TESLA_C2050, DeviceSpec
from repro.harness.common import resolve_tier
from repro.players import MctsPlayer
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

    def subject(kind: str, seed: int) -> MctsPlayer:
        family = "hybrid" if kind == "GPU + CPU" else "block"
        return MctsPlayer(
            game,
            make_engine(
                f"{family}:{cfg.blocks}x{cfg.tpb}",
                game,
                seed,
                device=cfg.device,
            ),
            cfg.move_budget_s,
            name=kind,
        )

    def opponent(seed: int) -> MctsPlayer:
        return MctsPlayer(
            game, make_engine("sequential", game, seed), cfg.move_budget_s
        )

    matchups = []
    keys = []
    for kind in ("GPU", "GPU + CPU"):
        for g in range(cfg.games_per_series):
            subj = subject(kind, derive_seed(cfg.seed, kind, g, "s"))
            opp = opponent(derive_seed(cfg.seed, kind, g, "o"))
            colour = 1 if g % 2 == 0 else -1
            matchups.append((subj, opp) if colour == 1 else (opp, subj))
            keys.append((kind, colour))

    records = play_games_cohort(
        game,
        matchups,
        BatchExecutor("reversi", derive_seed(cfg.seed, "executor")),
    )

    out = Fig8Result(config=cfg)
    for kind in ("GPU", "GPU + CPU"):
        recs = [r for r, (k, _) in zip(records, keys) if k == kind]
        colours = [c for _, (k, c) in zip(records, keys) if k == kind]
        out.points[kind] = mean_score_series(recs, colours, cfg.steps)
        out.depth[kind] = mean_depth_series(recs, colours, cfg.steps)
    return out
