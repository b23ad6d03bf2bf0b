"""Figure 6: win ratio vs GPU threads, GPU player vs 1-core sequential.

Every (scheme, thread count) point plays a set of Reversi games against
the same opponent the paper uses -- sequential MCTS on one virtual CPU
core -- both sides getting the same virtual move time.  All games of
all points run in one cohort so the CPU searches batch their playouts.

The qualitative targets from the paper: win ratio grows with thread
count for every scheme; leaf parallelism saturates (~0.75 in the paper)
while block parallelism keeps improving; small blocks do better at few
threads, large blocks win at scale.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.arena.cohort import play_matchups
from repro.games import Reversi
from repro.gpu import TESLA_C2050, DeviceSpec
from repro.harness.common import (
    PAPER_SCHEMES,
    Scheme,
    cohort_executor,
    mcts_player,
    resolve_tier,
)
from repro.util.seeding import derive_seed
from repro.util.tables import format_series


@dataclass(frozen=True)
class Fig6Config:
    thread_counts: tuple[int, ...] = (32, 128, 512, 2048)
    schemes: tuple[Scheme, ...] = PAPER_SCHEMES
    games_per_point: int = 5
    move_budget_s: float = 0.036
    device: DeviceSpec = TESLA_C2050
    seed: int = 60_2011

    @staticmethod
    def for_tier(tier: str | None = None) -> "Fig6Config":
        tier = resolve_tier(tier)
        if tier == "quick":
            return Fig6Config(
                thread_counts=(32, 512),
                schemes=(Scheme("block", 32), Scheme("leaf", 64)),
                games_per_point=2,
                move_budget_s=0.012,
            )
        if tier == "full":
            return Fig6Config(
                thread_counts=(32, 128, 512, 1024, 2048, 4096, 7168),
                games_per_point=12,
                move_budget_s=0.096,
            )
        return Fig6Config()


@dataclass
class Fig6Result:
    config: Fig6Config
    #: scheme label -> win ratios aligned with thread_counts.
    win_ratio: dict[str, list[float]] = field(default_factory=dict)
    #: scheme label -> (lo, hi) Wilson 95% intervals per point.
    intervals: dict[str, list[tuple[float, float]]] = field(
        default_factory=dict
    )

    def render(self) -> str:
        series = {}
        for label, ratios in self.win_ratio.items():
            cells = []
            for ratio, (lo, hi) in zip(ratios, self.intervals[label]):
                cells.append(f"{ratio:.2f} [{lo:.2f},{hi:.2f}]")
            series[label] = cells
        return format_series(
            "threads",
            list(self.config.thread_counts),
            series,
            title=(
                "Figure 6 reproduction: win ratio vs 1-core sequential "
                f"MCTS ({self.config.games_per_point} games/point, "
                f"{self.config.move_budget_s * 1e3:.0f} ms/move virtual)"
            ),
        )


def run_fig6(config: Fig6Config | None = None) -> Fig6Result:
    cfg = config or Fig6Config.for_tier()
    game = Reversi()

    def gpu_player(scheme: Scheme, threads: int):
        blocks, tpb = scheme.grid_for(threads)
        return mcts_player(
            game,
            f"{scheme.kind}:{blocks}x{tpb}",
            cfg.move_budget_s,
            name=scheme.label,
            device=cfg.device,
        )

    results = play_matchups(
        game,
        {
            (scheme.label, threads): gpu_player(scheme, threads)
            for scheme in cfg.schemes
            for threads in cfg.thread_counts
        },
        mcts_player(game, "sequential", cfg.move_budget_s, name="cpu-1"),
        cfg.games_per_point,
        lambda key, g, role: derive_seed(
            cfg.seed, *key, g, "gpu" if role == "subject" else "cpu"
        ),
        cohort_executor(game),
    )

    out = Fig6Result(config=cfg)
    for scheme in cfg.schemes:
        points = [
            results[scheme.label, threads] for threads in cfg.thread_counts
        ]
        out.win_ratio[scheme.label] = [p.win_ratio for p in points]
        out.intervals[scheme.label] = [p.win_ratio_ci() for p in points]
    return out
