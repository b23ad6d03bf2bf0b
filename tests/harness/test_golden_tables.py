"""Cross-commit golden for the paper's own tables.

Every match experiment (Figs. 6-9, the generalization and shared-tree
experiments, the three match ablations) plus Figure 5 runs on the tiny
configs of ``test_experiments.py`` and its ``render()`` is compared
against a checked-in golden.  The golden was generated at the commit
*before* the harness moved onto one match protocol and the measured
stack, so it holds two things at once: the shared fold
(``play_matchups`` -> ``MatchupResult``) reads the same numbers the
nine hand-written loops did, and ``arena`` + ``compiled`` plays the
same games as ``node`` + ``numpy``, seed for seed, on the figures
themselves.  Under ``REPRO_COMPILED=0`` the same file holds the
fallback stack to the same tables.

To intentionally update the golden after a deliberate behaviour
change::

    REPRO_REGEN_GOLDEN=1 PYTHONPATH=src python -m pytest \
        tests/harness/test_golden_tables.py
"""

import json
import os
from pathlib import Path

import pytest

from repro.harness import (
    BlockSizeConfig,
    Fig5Config,
    Fig6Config,
    Fig7Config,
    Fig8Config,
    Fig9Config,
    GeneralizationConfig,
    Scheme,
    ShootoutConfig,
    UcbConfig,
    VotePolicyConfig,
    run_block_size_ablation,
    run_fig5,
    run_fig6,
    run_fig7,
    run_fig8,
    run_fig9,
    run_generalization,
    run_shootout,
    run_ucb_ablation,
    run_vote_policy_ablation,
)

GOLDEN_PATH = Path(__file__).parent / "golden" / "tiny_tables.json"

TINY = dict(games_per_point=2, move_budget_s=0.004)

#: Experiment id -> (runner, tiny config).
CASES = {
    "fig5_speed": (
        run_fig5,
        Fig5Config(thread_counts=(32, 256), iterations_per_point=2),
    ),
    "fig6_winratio": (
        run_fig6,
        Fig6Config(
            thread_counts=(32,), schemes=(Scheme("block", 32),), **TINY
        ),
    ),
    "fig7_gpu_vs_cpus": (
        run_fig7,
        Fig7Config(cpu_counts=(2,), gpu_blocks=2, gpu_tpb=32, **TINY),
    ),
    "fig8_hybrid": (
        run_fig8,
        Fig8Config(
            blocks=2, tpb=32, games_per_series=2, move_budget_s=0.004
        ),
    ),
    "fig9_multigpu": (
        run_fig9,
        Fig9Config(
            gpu_counts=(1, 2),
            blocks=2,
            tpb=32,
            throughput_iterations=2,
            **TINY,
        ),
    ),
    "abl_block_size": (
        run_block_size_ablation,
        BlockSizeConfig(total_threads=64, block_sizes=(32, 64), **TINY),
    ),
    "abl_vote_policy": (
        run_vote_policy_ablation,
        VotePolicyConfig(
            policies=("max_visits",), blocks=2, tpb=32, **TINY
        ),
    ),
    "abl_ucb_c": (run_ucb_ablation, UcbConfig(c_values=(1.0,), **TINY)),
    "exp_generalization": (
        run_generalization,
        GeneralizationConfig(
            games=("tictactoe",),
            blocks=2,
            tpb=32,
            games_per_point=2,
            move_budget_s=0.003,
        ),
    ),
    "exp_shared_tree": (
        run_shootout,
        ShootoutConfig(
            games=("tictactoe",),
            worker_counts=(4,),
            games_per_point=2,
            move_budget_s=0.003,
        ),
    ),
}


def render(name: str) -> str:
    runner, config = CASES[name]
    return runner(config).render()


def read_golden() -> dict:
    return json.loads(GOLDEN_PATH.read_text())


def test_golden_covers_every_case():
    if os.environ.get("REPRO_REGEN_GOLDEN"):
        pytest.skip("regenerating")
    assert set(read_golden()) == set(CASES)


@pytest.mark.parametrize("name", CASES)
def test_table_matches_golden(name):
    table = render(name)
    if os.environ.get("REPRO_REGEN_GOLDEN"):
        golden = read_golden() if GOLDEN_PATH.exists() else {}
        golden[name] = table
        GOLDEN_PATH.parent.mkdir(exist_ok=True)
        GOLDEN_PATH.write_text(
            json.dumps(golden, indent=2, sort_keys=True) + "\n"
        )
    assert table == read_golden()[name]


def test_fallback_stack_renders_the_same_table(compiled_env):
    """Without a toolchain the harness runs the reference stack
    (pointer trees, NumPy playouts); the figure does not move."""
    compiled_env("0")
    assert render("fig8_hybrid") == read_golden()["fig8_hybrid"]
