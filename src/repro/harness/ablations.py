"""Ablation experiments for the design choices DESIGN.md calls out.

These are not paper figures; they probe the claims the paper makes in
prose: the block-size trade-off, the growth of the CPU sequential part
with tree count, the root-vote aggregation policy, and UCB exploration
sensitivity.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from repro.arena.cohort import play_matchups
from repro.core import make_engine
from repro.core.policy import MAX_RATIO, MAX_VISITS, MAX_WINS
from repro.core.results import SearchResult
from repro.games import Reversi, make_game
from repro.gpu import TESLA_C2050, LaunchConfig, playout_kernel_spec
from repro.gpu.timing import kernel_time
from repro.harness.common import cohort_executor, mcts_player, resolve_tier
from repro.util.profile import Profiler
from repro.util.seeding import derive_seed
from repro.util.tables import format_series, format_table

import numpy as np


# ---------------------------------------------------------------------------
# Block-size trade-off at fixed total threads
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BlockSizeConfig:
    total_threads: int = 1024
    block_sizes: tuple[int, ...] = (32, 64, 128, 256)
    games_per_point: int = 4
    move_budget_s: float = 0.036
    seed: int = 81_2011

    @staticmethod
    def for_tier(tier: str | None = None) -> "BlockSizeConfig":
        tier = resolve_tier(tier)
        if tier == "quick":
            return BlockSizeConfig(
                total_threads=256,
                block_sizes=(32, 128),
                games_per_point=2,
                move_budget_s=0.024,
            )
        if tier == "full":
            return BlockSizeConfig(
                total_threads=4096,
                block_sizes=(32, 64, 128, 256, 512),
                games_per_point=12,
                move_budget_s=0.096,
            )
        return BlockSizeConfig()


@dataclass
class BlockSizeResult:
    config: BlockSizeConfig
    win_ratio: dict[int, float] = field(default_factory=dict)

    def render(self) -> str:
        sizes = list(self.config.block_sizes)
        return format_series(
            "block size",
            sizes,
            {
                "win ratio vs cpu-1": [
                    f"{self.win_ratio[b]:.2f}" for b in sizes
                ]
            },
            title=(
                "Ablation: block size at fixed "
                f"{self.config.total_threads} total threads "
                "(trees x samples trade-off)"
            ),
        )


def run_block_size_ablation(
    config: BlockSizeConfig | None = None,
) -> BlockSizeResult:
    cfg = config or BlockSizeConfig.for_tier()
    game = Reversi()

    def spec(bs: int) -> str:
        blocks = max(1, cfg.total_threads // bs)
        return f"block:{blocks}x{min(bs, cfg.total_threads)}"

    results = play_matchups(
        game,
        {
            bs: mcts_player(game, spec(bs), cfg.move_budget_s)
            for bs in cfg.block_sizes
        },
        mcts_player(game, "sequential", cfg.move_budget_s),
        cfg.games_per_point,
        lambda bs, g, role: derive_seed(cfg.seed, bs, g, role[0]),
        cohort_executor(game, derive_seed(cfg.seed, "x")),
    )
    out = BlockSizeResult(config=cfg)
    for bs, result in results.items():
        out.win_ratio[bs] = result.win_ratio
    return out


# ---------------------------------------------------------------------------
# Sequential-part share (model-based, no games needed)
# ---------------------------------------------------------------------------

@dataclass
class SeqPartResult:
    block_counts: list[int]
    seq_fraction: list[float]

    def render(self) -> str:
        return format_series(
            "blocks(trees)",
            self.block_counts,
            {
                "CPU sequential share": [
                    f"{f * 100:.1f}%" for f in self.seq_fraction
                ]
            },
            title=(
                "Ablation: share of each block-parallel iteration spent "
                "in the serial CPU part (Amdahl term of Figure 5)"
            ),
        )


def run_seq_part_ablation(
    config: object = None,
    block_counts: tuple[int, ...] = (1, 4, 16, 64, 112, 224, 448),
    tpb: int = 32,
    mean_depth: int = 8,
    mean_steps: float = 65.0,
) -> SeqPartResult:
    """Model-based, so no tier presets: ``config`` is there because
    every registered runner takes one, and is ignored."""
    from repro.cpu import XEON_X5670

    spec = TESLA_C2050
    kernel = playout_kernel_spec("reversi")
    fractions = []
    for blocks in block_counts:
        launch = LaunchConfig(blocks, tpb)
        timing = kernel_time(
            spec, kernel, launch, np.full(blocks, mean_steps)
        )
        t_seq = blocks * XEON_X5670.tree_control_time(mean_depth)
        fractions.append(t_seq / (t_seq + timing.total_s))
    return SeqPartResult(list(block_counts), fractions)


# ---------------------------------------------------------------------------
# Warp divergence across game stages
# ---------------------------------------------------------------------------

@dataclass
class DivergenceAblationResult:
    stage_labels: list[str]
    mean_efficiency: list[float]
    utilisation: list[float]

    def render(self) -> str:
        return format_series(
            "game stage",
            self.stage_labels,
            {
                "warp efficiency": [
                    f"{e:.2f}" for e in self.mean_efficiency
                ],
                "lane utilisation": [
                    f"{u:.2f}" for u in self.utilisation
                ],
            },
            title=(
                "Ablation: SIMT warp efficiency of the playout kernel "
                "by game stage (justifies the kernel divergence "
                "constant)"
            ),
        )


def run_divergence_ablation(
    config: object = None,
    plies_per_stage: tuple[int, ...] = (0, 20, 40, 52),
    lanes: int = 256,
    seed: int = 84_2011,
) -> DivergenceAblationResult:
    """Warp efficiency of playout kernels launched from positions of
    increasing depth: later positions have shorter, more variable
    playouts, so divergence grows toward the endgame.  No tier presets:
    ``config`` is ignored, as in :func:`run_seq_part_ablation`."""
    from repro.games import BatchReversi
    from repro.games.batch import run_playouts_tracked
    from repro.gpu.divergence import analyze_divergence
    from repro.rng import BatchXorShift128Plus, XorShift64Star

    game = Reversi()
    bg = BatchReversi()
    launch = LaunchConfig(lanes // 32, 32)
    labels, eff, util = [], [], []
    for plies in plies_per_stage:
        rng = XorShift64Star(derive_seed(seed, plies))
        state = game.initial_state()
        for _ in range(plies):
            if game.is_terminal(state):
                break
            moves = game.legal_moves(state)
            state = game.apply(state, moves[rng.randrange(len(moves))])
        batch = bg.make_batch([state], lanes)
        tracked = run_playouts_tracked(
            bg, batch, BatchXorShift128Plus(lanes, derive_seed(seed, plies, 1))
        )
        report = analyze_divergence(tracked.finish_steps, launch)
        labels.append(f"ply {plies}")
        eff.append(report.mean_efficiency)
        util.append(report.utilisation)
    return DivergenceAblationResult(labels, eff, util)


# ---------------------------------------------------------------------------
# Root-vote aggregation policy
# ---------------------------------------------------------------------------

#: Pseudo-policy id: one ballot per tree instead of summed visits.
MAJORITY_VOTE = "majority_vote"


@dataclass(frozen=True)
class VotePolicyConfig:
    policies: tuple[str, ...] = (
        MAX_VISITS,
        MAX_RATIO,
        MAX_WINS,
        MAJORITY_VOTE,
    )
    blocks: int = 16
    tpb: int = 32
    games_per_point: int = 4
    move_budget_s: float = 0.036
    seed: int = 82_2011

    @staticmethod
    def for_tier(tier: str | None = None) -> "VotePolicyConfig":
        tier = resolve_tier(tier)
        if tier == "quick":
            return VotePolicyConfig(
                policies=(MAX_VISITS, MAX_RATIO),
                blocks=4,
                games_per_point=2,
                move_budget_s=0.024,
            )
        if tier == "full":
            return VotePolicyConfig(
                games_per_point=12, move_budget_s=0.096
            )
        return VotePolicyConfig()


@dataclass
class VotePolicyResult:
    config: VotePolicyConfig
    win_ratio: dict[str, float] = field(default_factory=dict)

    def render(self) -> str:
        rows = [
            [policy, f"{self.win_ratio[policy]:.2f}"]
            for policy in self.config.policies
        ]
        return format_table(
            ["final-move policy", "win ratio vs cpu-1"],
            rows,
            title="Ablation: root-vote aggregation policy",
        )


def run_vote_policy_ablation(
    config: VotePolicyConfig | None = None,
) -> VotePolicyResult:
    cfg = config or VotePolicyConfig.for_tier()
    game = Reversi()
    results = play_matchups(
        game,
        {
            policy: mcts_player(
                game,
                f"block:{cfg.blocks}x{cfg.tpb}",
                cfg.move_budget_s,
                **(
                    {"vote": "majority"}
                    if policy == MAJORITY_VOTE
                    else {"final_policy": policy}
                ),
            )
            for policy in cfg.policies
        },
        mcts_player(game, "sequential", cfg.move_budget_s),
        cfg.games_per_point,
        lambda policy, g, role: derive_seed(cfg.seed, policy, g, role[0]),
        cohort_executor(game, derive_seed(cfg.seed, "x")),
    )
    out = VotePolicyResult(config=cfg)
    for policy, result in results.items():
        out.win_ratio[policy] = result.win_ratio
    return out


# ---------------------------------------------------------------------------
# Stack grid: tree backend x playout executor on block-parallel search
# ---------------------------------------------------------------------------

#: Every stack the differential walls hold equal, baseline first.
STACK_GRID = (
    "node+numpy",
    "arena+numpy",
    "node+compiled",
    "arena+compiled",
)


@dataclass(frozen=True)
class BackendConfig:
    """Wall-clock comparison of stack cells on block-parallel search.

    The default shape (many narrow trees on a small-branching game) is
    where the lockstep descent pays off; expansion-dominated shapes
    (reversi, few trees) sit at parity -- see
    ``benchmarks/REPORT_arena.md`` for the sweep.
    """

    blocks: int = 256
    tpb: int = 1
    iterations: int = 400
    game: str = "tictactoe"
    seed: int = 85_2011
    #: The stacks to time, baseline first, each ``backend`` or
    #: ``backend+playout`` (a bare backend runs its default executor,
    #: as ``@arena`` does in a spec); the default is
    #: ``abl_tree_backend``'s pair, both on NumPy playouts so the tree
    #: backend is all that differs.
    cells: tuple[str, ...] = ("node+numpy", "arena+numpy")

    @staticmethod
    def for_tier(tier: str | None = None) -> "BackendConfig":
        """The tree-heavy point: one lane a tree, so the CPU
        sequential part is the iteration."""
        tier = resolve_tier(tier)
        if tier == "quick":
            return BackendConfig(blocks=128, iterations=120)
        if tier == "full":
            return BackendConfig(blocks=512, iterations=600)
        return BackendConfig()

    @staticmethod
    def playout_heavy() -> "BackendConfig":
        """The opposite point: four wide blocks, so the playout kernel
        is the iteration and the executor axis shows.  Seconds at every
        tier, hence no presets."""
        return BackendConfig(
            blocks=4,
            tpb=256,
            iterations=60,
            game="connect4",
            cells=STACK_GRID,
        )


@dataclass
class BackendResult:
    config: BackendConfig
    #: cell -> wall-clock iterations per second.
    iters_per_s: dict[str, float] = field(default_factory=dict)
    #: cell -> what the search returned.
    results: dict[str, SearchResult] = field(default_factory=dict)
    #: cell -> select / playout / backprop wall-clock phases.
    phases: dict[str, Profiler] = field(default_factory=dict)

    @property
    def identical(self) -> bool:
        """Same seed, same answer: every cell equals the first."""
        first, *rest = (
            (r.move, r.stats, r.iterations, r.simulations)
            for r in self.results.values()
        )
        return all(answer == first for answer in rest)

    def speedup_of(self, cell: str) -> float:
        """``cell``'s iterations/s over the first cell's."""
        return self.iters_per_s[cell] / self.iters_per_s[self.config.cells[0]]

    @property
    def speedup(self) -> float:
        return self.speedup_of(self.config.cells[-1])

    def render(self) -> str:
        base, *others = self.config.cells
        rows = [
            [cell, f"{self.iters_per_s[cell]:.1f}"]
            for cell in sorted(self.iters_per_s)
        ]
        rows += [
            [f"{cell}/{base} speedup", f"{self.speedup_of(cell):.2f}x"]
            for cell in others
        ]
        rows.append(["identical results", str(self.identical)])
        return format_table(
            ["tree backend", "iterations/s (wall)"],
            rows,
            title=(
                "Ablation: tree backend on block-parallel "
                f"({self.config.blocks}x{self.config.tpb}, "
                f"{self.config.iterations} iterations, "
                f"{self.config.game})"
            ),
        )


def run_backend_ablation(
    config: BackendConfig | None = None,
) -> BackendResult:
    """Time one block spec on every cell of ``config.cells`` -- the one
    stack-grid loop outside ``perfbench/``."""
    cfg = config or BackendConfig.for_tier()
    game = make_game(cfg.game)
    state = game.initial_state()
    out = BackendResult(config=cfg)
    for cell in cfg.cells:
        backend, _, playout = cell.partition("+")
        engine = make_engine(
            {
                "kind": "block",
                "blocks": cfg.blocks,
                "threads_per_block": cfg.tpb,
                "max_iterations": cfg.iterations,
                "backend": backend,
                "playout": playout or None,
            },
            game,
            cfg.seed,
        )
        engine.profiler = out.phases[cell] = Profiler()
        t0 = time.perf_counter()
        out.results[cell] = engine.search(state, budget_s=1e9)
        wall = time.perf_counter() - t0
        out.iters_per_s[cell] = out.results[cell].iterations / wall
    return out


# ---------------------------------------------------------------------------
# UCB exploration constant
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class UcbConfig:
    c_values: tuple[float, ...] = (0.25, 0.5, 1.0, 2.0)
    games_per_point: int = 4
    move_budget_s: float = 0.024
    seed: int = 83_2011

    @staticmethod
    def for_tier(tier: str | None = None) -> "UcbConfig":
        tier = resolve_tier(tier)
        if tier == "quick":
            return UcbConfig(
                c_values=(0.5, 2.0),
                games_per_point=2,
                move_budget_s=0.012,
            )
        if tier == "full":
            return UcbConfig(
                c_values=(0.1, 0.25, 0.5, 1.0, 1.4, 2.0, 4.0),
                games_per_point=12,
            )
        return UcbConfig()


@dataclass
class UcbResult:
    config: UcbConfig
    win_ratio: dict[float, float] = field(default_factory=dict)

    def render(self) -> str:
        cs = list(self.config.c_values)
        return format_series(
            "UCB C",
            cs,
            {
                "win ratio vs C=1.0": [
                    f"{self.win_ratio[c]:.2f}" for c in cs
                ]
            },
            title="Ablation: UCB exploration constant (sequential MCTS)",
        )


def run_ucb_ablation(config: UcbConfig | None = None) -> UcbResult:
    cfg = config or UcbConfig.for_tier()
    game = Reversi()
    results = play_matchups(
        game,
        {
            c: mcts_player(game, "sequential", cfg.move_budget_s, ucb_c=c)
            for c in cfg.c_values
        },
        mcts_player(game, "sequential", cfg.move_budget_s, ucb_c=1.0),
        cfg.games_per_point,
        lambda c, g, role: derive_seed(cfg.seed, str(c), g, role[0]),
        cohort_executor(game, derive_seed(cfg.seed, "x")),
    )
    out = UcbResult(config=cfg)
    for c, result in results.items():
        out.win_ratio[c] = result.win_ratio
    return out
