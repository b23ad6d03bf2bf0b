"""Experiment harness: one module per paper figure, plus ablations.

Every experiment has a config with ``for_tier('quick'|'default'|'full')``
presets (see :mod:`repro.harness.common`), a ``run_*`` entry point, and
a result object with ``.render()`` producing the rows/series the paper
plots.  The registry below maps experiment ids (DESIGN.md section 4) to
their runners.
"""

from repro.harness.ablations import (
    BackendConfig,
    BlockSizeConfig,
    UcbConfig,
    VotePolicyConfig,
    run_backend_ablation,
    run_block_size_ablation,
    run_divergence_ablation,
    run_seq_part_ablation,
    run_ucb_ablation,
    run_vote_policy_ablation,
)
from repro.harness.common import (
    PAPER_SCHEMES,
    PAPER_THREAD_SWEEP,
    Scheme,
    resolve_tier,
)
from repro.harness.fig5_speed import Fig5Config, Fig5Result, run_fig5
from repro.harness.generalization import (
    GeneralizationConfig,
    GeneralizationResult,
    run_generalization,
)
from repro.harness.fig6_winratio import Fig6Config, Fig6Result, run_fig6
from repro.harness.fig7_gpu_vs_cpus import Fig7Config, Fig7Result, run_fig7
from repro.harness.fig8_hybrid import Fig8Config, Fig8Result, run_fig8
from repro.harness.fig9_multigpu import Fig9Config, Fig9Result, run_fig9
from repro.harness.shared_tree import (
    ShootoutConfig,
    ShootoutResult,
    run_shootout,
)

#: Experiment id (DESIGN.md section 4) -> (config factory, runner).  The
#: two model-based ablations have no tier presets: their config is the
#: tier's name, which they ignore.
EXPERIMENTS = {
    "fig5_speed": (Fig5Config.for_tier, run_fig5),
    "fig6_winratio": (Fig6Config.for_tier, run_fig6),
    "fig7_gpu_vs_cpus": (Fig7Config.for_tier, run_fig7),
    "fig8_hybrid": (Fig8Config.for_tier, run_fig8),
    "fig9_multigpu": (Fig9Config.for_tier, run_fig9),
    "abl_block_size": (
        BlockSizeConfig.for_tier,
        run_block_size_ablation,
    ),
    "abl_sequential_part": (resolve_tier, run_seq_part_ablation),
    "abl_vote_policy": (
        VotePolicyConfig.for_tier,
        run_vote_policy_ablation,
    ),
    "abl_divergence": (resolve_tier, run_divergence_ablation),
    "abl_ucb_c": (UcbConfig.for_tier, run_ucb_ablation),
    "abl_tree_backend": (BackendConfig.for_tier, run_backend_ablation),
    "exp_generalization": (
        GeneralizationConfig.for_tier,
        run_generalization,
    ),
    "exp_shared_tree": (ShootoutConfig.for_tier, run_shootout),
}


def run_experiment(name: str, tier: str | None = None):
    """Run a registered experiment at a tier; returns its result."""
    try:
        config_factory, runner = EXPERIMENTS[name]
    except KeyError:
        raise ValueError(
            f"unknown experiment {name!r}; available: "
            f"{sorted(EXPERIMENTS)}"
        ) from None
    return runner(config_factory(tier))


__all__ = [
    "EXPERIMENTS",
    "run_experiment",
    "resolve_tier",
    "Scheme",
    "PAPER_SCHEMES",
    "PAPER_THREAD_SWEEP",
    "Fig5Config",
    "Fig5Result",
    "run_fig5",
    "Fig6Config",
    "Fig6Result",
    "run_fig6",
    "Fig7Config",
    "Fig7Result",
    "run_fig7",
    "Fig8Config",
    "Fig8Result",
    "run_fig8",
    "Fig9Config",
    "Fig9Result",
    "run_fig9",
    "BlockSizeConfig",
    "run_block_size_ablation",
    "run_seq_part_ablation",
    "run_divergence_ablation",
    "VotePolicyConfig",
    "run_vote_policy_ablation",
    "UcbConfig",
    "run_ucb_ablation",
    "BackendConfig",
    "run_backend_ablation",
    "GeneralizationConfig",
    "GeneralizationResult",
    "run_generalization",
    "ShootoutConfig",
    "ShootoutResult",
    "run_shootout",
]
