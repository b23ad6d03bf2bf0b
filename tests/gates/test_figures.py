"""The paper's figure shapes (Figs. 5-9), the ablations and the
generalization experiment: each test runs its experiment once at
``REPRO_TIER`` and prints the rendered table, so the log doubles as the
figure output.

The quick tier has too few games for statistical claims, so the
strength figures check structure there and their trends only at richer
tiers; the throughput shapes (Figs. 5 and 9), the hybrid's deeper trees
(Fig. 8) and the ablations' Amdahl and divergence terms hold at every
tier.
"""

import numpy as np

from repro.harness.ablations import (
    BlockSizeConfig,
    UcbConfig,
    VotePolicyConfig,
    run_block_size_ablation,
    run_divergence_ablation,
    run_seq_part_ablation,
    run_ucb_ablation,
    run_vote_policy_ablation,
)
from repro.harness.fig5_speed import Fig5Config, run_fig5
from repro.harness.fig6_winratio import Fig6Config, run_fig6
from repro.harness.fig7_gpu_vs_cpus import Fig7Config, run_fig7
from repro.harness.fig8_hybrid import Fig8Config, run_fig8
from repro.harness.fig9_multigpu import Fig9Config, run_fig9
from repro.harness.generalization import (
    GeneralizationConfig,
    run_generalization,
)


def run_printed(run, *args):
    """``run(*args)``, its rendered table printed."""
    result = run(*args)
    print()
    print(result.render())
    return result


def test_fig5_speed():
    """Playouts/s vs GPU threads: throughput rises with threads; leaf(64)
    is the fastest raw simulator at scale; block(32) pays the largest
    CPU-sequential tax."""
    cfg = Fig5Config.for_tier()
    result = run_printed(run_fig5, cfg)

    threads = cfg.thread_counts
    leaf = result.series["leaf(bs=64)"]
    block32 = result.series["block(bs=32)"]

    # Throughput must grow strongly from the smallest to the largest
    # grid for every scheme (the rising left side of Figure 5).
    for series in result.series.values():
        assert series[-1] > 5 * series[0]

    # The block(32) CPU sequential part must show up as a deficit
    # against leaf(64) at the largest measured grid.
    assert block32[-1] < leaf[-1]

    # Calibration envelope: peak in the paper's decade (~1e5..1e6+
    # playouts/s once past a few hundred threads).
    if threads[-1] >= 1024:
        assert 1e5 < leaf[-1] < 5e6


def test_fig6_winratio():
    """Win ratio vs threads against 1-core sequential MCTS."""
    cfg = Fig6Config.for_tier()
    result = run_printed(run_fig6, cfg)

    for label, ratios in result.win_ratio.items():
        assert len(ratios) == len(cfg.thread_counts)
        for ratio in ratios:
            assert 0.0 <= ratio <= 1.0

    if cfg.games_per_point >= 6:
        # With enough games the paper's trend must hold: the largest
        # grid beats the smallest for every scheme, and the biggest
        # block-parallel point is clearly above 50%.
        for label, ratios in result.win_ratio.items():
            assert ratios[-1] >= ratios[0] - 0.15
        block_labels = [
            k for k in result.win_ratio if k.startswith("block")
        ]
        assert any(
            result.win_ratio[k][-1] > 0.5 for k in block_labels
        )


def test_fig7_gpu_vs_cpus():
    """Point difference per game step, CPUs vs one GPU: with >= 4 games
    per point the GPU must match or beat the median CPU configuration on
    final score."""
    cfg = Fig7Config.for_tier()
    result = run_printed(run_fig7, cfg)

    assert "1 GPU" in result.series
    for label, series in result.series.items():
        assert series.shape == (cfg.steps,)
        assert np.all(np.abs(series) <= 64)

    finals = result.final_scores()
    if cfg.games_per_point >= 4:
        gpu = finals["1 GPU"]
        cpu_finals = sorted(
            v for k, v in finals.items() if k != "1 GPU"
        )
        median_cpu = cpu_finals[len(cpu_finals) // 2]
        assert gpu >= median_cpu - 4.0  # GPU at/above the CPU pack


def test_fig8_hybrid():
    """Hybrid CPU/GPU vs GPU-only: the overlapped CPU iterations deepen
    the trees at every tier; the points advantage needs more games."""
    cfg = Fig8Config.for_tier()
    result = run_printed(run_fig8, cfg)

    # Depth: hybrid >= GPU-only on average over the game (Fig 8 right).
    assert (
        result.depth["GPU + CPU"].mean() >= result.depth["GPU"].mean()
    )

    if cfg.games_per_series >= 6:
        # Points: hybrid at least matches GPU-only in the endgame
        # (Fig 8 left), within a small noise margin.
        last_quarter = slice(3 * cfg.steps // 4, cfg.steps)
        assert (
            result.points["GPU + CPU"][last_quarter].mean()
            >= result.points["GPU"][last_quarter].mean() - 4.0
        )


def test_fig9_multigpu():
    """Multi-GPU MPI scaling: throughput near-linear in ranks at every
    tier; more GPUs at least as strong, with a noise margin, when
    enough games are played."""
    cfg = Fig9Config.for_tier()
    result = run_printed(run_fig9, cfg)

    ranks = list(cfg.gpu_counts)
    first, last = ranks[0], ranks[-1]
    ideal = last / first
    speedup = result.throughput[last] / result.throughput[first]
    assert speedup > 0.7 * ideal  # near-linear (paper left panel)

    if cfg.games_per_point >= 4:
        assert (
            result.point_difference[last]
            >= result.point_difference[first] - 6.0
        )


def test_generalization():
    """GPU schemes on non-Reversi domains."""
    cfg = GeneralizationConfig.for_tier()
    result = run_printed(run_generalization, cfg)
    for ratio in result.win_ratio.values():
        assert 0.0 <= ratio <= 1.0
    if cfg.games_per_point >= 6:
        # With enough games the GPU schemes must not lose to the
        # 1-core baseline overall (the transfer claim).
        mean_ratio = sum(result.win_ratio.values()) / len(
            result.win_ratio
        )
        assert mean_ratio >= 0.45


def test_ablation_block_size():
    cfg = BlockSizeConfig.for_tier()
    result = run_printed(run_block_size_ablation, cfg)
    for ratio in result.win_ratio.values():
        assert 0.0 <= ratio <= 1.0


def test_ablation_sequential_part():
    result = run_printed(run_seq_part_ablation)
    # The serial share must grow with the number of trees until the
    # kernel waves grow proportionally too (the paper's Amdahl term).
    assert result.seq_fraction[0] < result.seq_fraction[3]
    assert all(0.0 <= f < 1.0 for f in result.seq_fraction)


def test_ablation_divergence():
    result = run_printed(run_divergence_ablation)
    assert all(0.0 < e <= 1.0 for e in result.mean_efficiency)
    # Opening launches are the most uniform (longest common playouts).
    assert result.mean_efficiency[0] >= result.mean_efficiency[-1] - 0.05


def test_ablation_vote_policy():
    cfg = VotePolicyConfig.for_tier()
    result = run_printed(run_vote_policy_ablation, cfg)
    assert set(result.win_ratio) == set(cfg.policies)


def test_ablation_ucb_c():
    cfg = UcbConfig.for_tier()
    result = run_printed(run_ucb_ablation, cfg)
    assert set(result.win_ratio) == set(cfg.c_values)
