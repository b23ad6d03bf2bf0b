"""Figure 9: multi-GPU scaling over (simulated) MPI.

Two panels, reproduced as two series:

* throughput -- aggregate playouts/second as ranks grow (the paper's
  log-scale left panel, near-linear scaling);
* strength -- average final point difference vs the 1-core sequential
  opponent as ranks grow (the paper's right panel: improving with GPU
  count but flattening, the gains bounded by root-vote saturation and
  Reversi itself).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.arena.cohort import play_matchups
from repro.core.spec import make_engine
from repro.games import Reversi
from repro.gpu import TESLA_C2050, DeviceSpec
from repro.harness.common import (
    cohort_executor,
    mcts_player,
    resolve_tier,
)
from repro.mpi import TSUBAME_IB, NetworkModel
from repro.util.seeding import derive_seed
from repro.util.tables import format_series


@dataclass(frozen=True)
class Fig9Config:
    gpu_counts: tuple[int, ...] = (1, 2, 4, 8)
    blocks: int = 8
    tpb: int = 32
    games_per_point: int = 4
    move_budget_s: float = 0.036
    throughput_iterations: int = 3
    device: DeviceSpec = TESLA_C2050
    network: NetworkModel = TSUBAME_IB
    seed: int = 90_2011

    @staticmethod
    def for_tier(tier: str | None = None) -> "Fig9Config":
        tier = resolve_tier(tier)
        if tier == "quick":
            return Fig9Config(
                gpu_counts=(1, 2),
                blocks=4,
                games_per_point=2,
                move_budget_s=0.012,
            )
        if tier == "full":
            return Fig9Config(
                gpu_counts=(1, 2, 4, 8, 16, 32),
                blocks=112,
                tpb=64,
                games_per_point=8,
                move_budget_s=0.096,
            )
        return Fig9Config()


@dataclass
class Fig9Result:
    config: Fig9Config
    #: rank count -> aggregate playouts/second (virtual).
    throughput: dict[int, float] = field(default_factory=dict)
    #: rank count -> mean final point difference vs the opponent.
    point_difference: dict[int, float] = field(default_factory=dict)

    def render(self) -> str:
        ranks = list(self.config.gpu_counts)
        return format_series(
            "gpus",
            ranks,
            {
                "playouts/s": [
                    f"{self.throughput[r]:.3g}" for r in ranks
                ],
                "avg point diff": [
                    f"{self.point_difference[r]:+.1f}" for r in ranks
                ],
            },
            title=(
                "Figure 9 reproduction: multi-GPU scaling "
                f"({self.config.blocks}x{self.config.tpb} per GPU, "
                "MPI root aggregation)"
            ),
        )


def _spec(n_gpus: int, cfg: Fig9Config) -> str:
    return f"multigpu:{n_gpus}x{cfg.blocks}x{cfg.tpb}"


def measure_throughput(n_gpus: int, cfg: Fig9Config) -> float:
    game = Reversi()
    subject = make_engine(
        _spec(n_gpus, cfg),
        game,
        derive_seed(cfg.seed, "thr", n_gpus),
        device=cfg.device,
        network=cfg.network,
        max_iterations=cfg.throughput_iterations,
    )
    result = subject.search(game.initial_state(), budget_s=1e9)
    return result.simulations / result.elapsed_s


def run_fig9(config: Fig9Config | None = None) -> Fig9Result:
    cfg = config or Fig9Config.for_tier()
    game = Reversi()
    out = Fig9Result(config=cfg)

    for n in cfg.gpu_counts:
        out.throughput[n] = measure_throughput(n, cfg)

    results = play_matchups(
        game,
        {
            n: mcts_player(
                game,
                _spec(n, cfg),
                cfg.move_budget_s,
                name=f"{n} GPUs",
                device=cfg.device,
                network=cfg.network,
            )
            for n in cfg.gpu_counts
        },
        mcts_player(game, "sequential", cfg.move_budget_s),
        cfg.games_per_point,
        lambda n, g, role: derive_seed(cfg.seed, "game", n, g, role[0]),
        cohort_executor(game),
    )
    for n, result in results.items():
        out.point_difference[n] = result.mean_final_score
    return out
