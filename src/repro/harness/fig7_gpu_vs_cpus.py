"""Figure 7: point difference per game step -- root-parallel CPUs vs
one block-parallel GPU, all against the 1-core sequential opponent.

The paper plots, for each configuration, the average (our score -
opponent's score) at every game step; the headline is that one GPU's
curve sits above even the 256-CPU curve, with the GPU relatively
stronger early in the game.
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
class Fig7Config:
    cpu_counts: tuple[int, ...] = (2, 8, 32, 128)
    gpu_blocks: int = 32
    gpu_tpb: int = 128
    games_per_point: int = 4
    move_budget_s: float = 0.036
    steps: int = 60
    device: DeviceSpec = TESLA_C2050
    seed: int = 70_2011

    @staticmethod
    def for_tier(tier: str | None = None) -> "Fig7Config":
        tier = resolve_tier(tier)
        if tier == "quick":
            return Fig7Config(
                cpu_counts=(2, 8),
                gpu_blocks=8,
                gpu_tpb=32,
                games_per_point=2,
                move_budget_s=0.012,
            )
        if tier == "full":
            return Fig7Config(
                cpu_counts=(2, 4, 8, 16, 32, 64, 128, 256),
                gpu_blocks=112,
                gpu_tpb=128,
                games_per_point=10,
                move_budget_s=0.096,
            )
        return Fig7Config()


@dataclass
class Fig7Result:
    config: Fig7Config
    #: label ("2 cpus", ..., "1 GPU") -> per-step mean point difference.
    series: dict[str, np.ndarray] = field(default_factory=dict)

    def final_scores(self) -> dict[str, float]:
        return {k: float(v[-1]) for k, v in self.series.items()}

    def gpu_equivalent_cpus(self) -> float:
        """The paper's headline: how many root-parallel CPU cores the
        GPU's final score is worth, by log-linear interpolation on the
        CPU curve.  Returns ``inf`` if the GPU beats every CPU
        configuration measured (the paper's Fig. 7 outcome) and the
        smallest measured count if it trails all of them."""
        import math

        finals = self.final_scores()
        gpu = finals["1 GPU"]
        cpu_points = sorted(
            (int(label.split()[0]), score)
            for label, score in finals.items()
            if label != "1 GPU"
        )
        if gpu >= cpu_points[-1][1]:
            return float("inf")
        if gpu <= cpu_points[0][1]:
            return float(cpu_points[0][0])
        for (n0, s0), (n1, s1) in zip(cpu_points, cpu_points[1:]):
            if s0 <= gpu <= s1 and s1 > s0:
                frac = (gpu - s0) / (s1 - s0)
                return float(
                    math.exp(
                        math.log(n0)
                        + frac * (math.log(n1) - math.log(n0))
                    )
                )
        return float(cpu_points[0][0])

    def render(self, step_stride: int = 8) -> str:
        steps = list(range(1, self.config.steps + 1, step_stride))
        if steps[-1] != self.config.steps:
            steps.append(self.config.steps)
        series = {
            label: [f"{values[s - 1]:+.1f}" for s in steps]
            for label, values in self.series.items()
        }
        table = format_series(
            "step",
            steps,
            series,
            title=(
                "Figure 7 reproduction: mean point difference vs game "
                "step (subject minus 1-core sequential opponent, "
                f"{self.config.games_per_point} games/config)"
            ),
        )
        chart = ascii_chart(
            {k: list(v) for k, v in self.series.items()},
            title="point difference vs game step:",
        )
        eq = self.gpu_equivalent_cpus()
        eq_line = (
            "1 GPU >= every measured CPU configuration"
            if eq == float("inf")
            else f"1 GPU ~ {eq:.0f} root-parallel CPU cores"
        )
        return f"{table}\n\n{chart}\n\nheadline: {eq_line}"


def run_fig7(config: Fig7Config | None = None) -> Fig7Result:
    cfg = config or Fig7Config.for_tier()
    game = Reversi()

    subjects = {
        f"{n} cpus": mcts_player(
            game, f"root:{n}", cfg.move_budget_s, name=f"{n} cpus"
        )
        for n in cfg.cpu_counts
    }
    subjects["1 GPU"] = mcts_player(
        game,
        f"block:{cfg.gpu_blocks}x{cfg.gpu_tpb}",
        cfg.move_budget_s,
        name="1 GPU",
        device=cfg.device,
    )

    results = play_matchups(
        game,
        subjects,
        mcts_player(game, "sequential", cfg.move_budget_s),
        cfg.games_per_point,
        lambda label, g, role: derive_seed(cfg.seed, label, g, role),
        cohort_executor(game),
    )

    out = Fig7Result(config=cfg)
    for label, result in results.items():
        out.series[label] = result.score_series(cfg.steps)
    return out
