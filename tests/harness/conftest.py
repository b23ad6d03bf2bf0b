"""The tiny configs of the paper's tables, each run once per session.

``CASES`` is the one place a table's tiny config is written.  The
:func:`tiny` fixture runs an experiment the first time a test asks for
it and hands every later test the same result object, so the golden
compare (``test_golden_tables.py``) and the shape checks
(``test_experiments.py``) read one run."""

import functools
from collections import Counter

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


#: Experiment id -> how many times this session has run its ``CASES``
#: config through :func:`tiny`.  Module-level, not on the fixture, so
#: it outlives a fixture instance: a narrower scope shows as a rerun.
RUNS = Counter()


@pytest.fixture(scope="session")
def tiny():
    """``tiny(name)`` is the result of ``CASES[name]``, run on the
    session's first request and shared with every later one."""

    @functools.cache
    def run(name: str):
        RUNS[name] += 1
        runner, config = CASES[name]
        return runner(config)

    return run
