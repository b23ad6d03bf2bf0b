"""EXPERIMENTS.md generation: paper expectation vs measured output.

``python -m repro.harness.report [tier]`` runs every registered
experiment at the given tier and rewrites EXPERIMENTS.md with the
rendered tables next to the paper's qualitative claims.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

from repro.harness import EXPERIMENTS, run_experiment, resolve_tier

#: What the paper reports, per experiment id -- the claims the measured
#: output is judged against.
PAPER_CLAIMS = {
    "fig5_speed": (
        "Paper Fig. 5: playouts/s rises with thread count and saturates "
        "near ~9e5 for leaf(bs=64); block parallelism is slower in raw "
        "playouts (block(32) slowest at scale) because of the CPU "
        "sequential part that grows with the number of trees."
    ),
    "fig6_winratio": (
        "Paper Fig. 6: win ratio vs a 1-core sequential player grows "
        "with threads for all schemes; leaf parallelism saturates "
        "around 0.75 by ~1024 threads; block(32) is better at few "
        "threads, block(128) wins beyond ~4096 threads; block "
        "parallelism approaches ~0.95+."
    ),
    "fig7_gpu_vs_cpus": (
        "Paper Fig. 7: mean point difference vs game step for "
        "root-parallel CPUs (2..256) and one block-parallel GPU; more "
        "CPUs help monotonically (with diminishing returns); the GPU "
        "curve is at or above the biggest CPU configuration, and the "
        "GPU is relatively stronger early in the game."
    ),
    "fig8_hybrid": (
        "Paper Fig. 8: hybrid CPU+GPU reaches greater tree depth than "
        "GPU-only and scores more points, especially in the last phase "
        "of the game."
    ),
    "fig9_multigpu": (
        "Paper Fig. 9: aggregate playouts/s scales near-linearly with "
        "GPU count (log-scale panel); average point difference "
        "improves with GPUs but flattens (26.5 -> ~29.5 over 1..32 "
        "GPUs in the paper)."
    ),
    "abl_block_size": (
        "Paper (prose): at fixed total threads, smaller blocks mean "
        "more trees but fewer samples per tree; the paper finds 32 "
        "best at small scale and 128 at large scale."
    ),
    "abl_sequential_part": (
        "Paper (prose): 'a particular sequential part of this "
        "algorithm decreases the number of simulations per second a "
        "bit when the number of blocks is higher' -- the share should "
        "grow with block count."
    ),
    "abl_vote_policy": (
        "Paper (implied): root aggregation sums simulation counts; "
        "max-visits voting should be at least as good as alternatives."
    ),
    "abl_ucb_c": (
        "Paper (sec. II): C 'a parameter to be adjusted'; strength "
        "should peak at moderate exploration and fall at extremes."
    ),
    "exp_generalization": (
        "Paper sec. V (future work): 'application of the algorithm to "
        "other domains' -- GPU schemes should beat the sequential "
        "baseline on other games too, with block parallelism at least "
        "matching leaf parallelism."
    ),
    "exp_shared_tree": (
        "Related work (WU-UCT; 3PMCTS): shared-tree engines with "
        "in-flight accounting should hold their strength as workers "
        "grow -- WU-UCT matching or beating virtual loss at large N "
        "because it keeps the mean clean -- and the 3PMCTS pipeline "
        "buys extra iterations from select/playout overlap at equal "
        "virtual budget."
    ),
    "abl_divergence": (
        "Paper (implied by SIMD execution): playouts in one warp run "
        "until the slowest lane finishes; divergence waste grows for "
        "later-game launches where playout lengths vary more."
    ),
    "abl_tree_backend": (
        "Paper sec. III (the CPU sequential part): walking every "
        "block's tree is the scalable bottleneck; the vectorised "
        "array arena must reproduce the pointer tree bit for bit "
        "while raising block-parallel iterations/s (the backends gate "
        "of tests/gates/test_micro.py asserts speedup > 1.0 over the "
        "pointer tree on this table's row; benchmarks/REPORT_arena.md "
        "has the sweep)."
    ),
}


def generate_experiments_md(
    tier: str | None = None,
    path: str | Path = "EXPERIMENTS.md",
    names: list[str] | None = None,
) -> str:
    tier = resolve_tier(tier)
    chosen = names or list(EXPERIMENTS)
    sections = [
        "# EXPERIMENTS — paper vs measured",
        "",
        f"Generated by `python -m repro.harness.report {tier}` "
        f"(tier: **{tier}**; see DESIGN.md section 4 for the "
        "experiment index and section 5 for the virtual-time model).",
        "",
        "Absolute numbers are not expected to match the paper -- the "
        "substrate is a simulated SIMT device, not a Tesla C2050 -- "
        "but each figure's *shape* (orderings, saturations, trends) "
        "is the reproduction target.",
        "",
    ]
    for name in chosen:
        t0 = time.perf_counter()
        result = run_experiment(name, tier)
        elapsed = time.perf_counter() - t0
        sections.extend(
            [
                f"## {name}",
                "",
                f"**Paper:** {PAPER_CLAIMS[name]}",
                "",
                "**Measured:**",
                "",
                "```",
                result.render(),
                "```",
                "",
                f"_Run time: {elapsed:.1f}s wall ({tier} tier)._",
                "",
            ]
        )
        # Write incrementally so a long run that dies partway still
        # leaves every completed section on disk.
        Path(path).write_text("\n".join(sections))
    return "\n".join(sections)


if __name__ == "__main__":
    tier_arg = sys.argv[1] if len(sys.argv) > 1 else None
    names_arg = sys.argv[2:] or None
    generate_experiments_md(tier_arg, names=names_arg)
    print("EXPERIMENTS.md written")
