"""Compiled playout executor: C kernels behind the NumPy batch seam.

Public surface:

* :func:`compiled_available` -- is the toolchain-built library usable?
* :func:`kernel_body` -- which body of the playout exports it runs
  (``"portable"`` or ``"avx2+bmi2"``, picked when it loads).
* :func:`block_workers` -- how many host threads a block launch plays
  its blocks on (one per CPU of the process's affinity mask).
* :func:`launch_compiled` -- the launch entry: positions x lanes per
  position and a lane-seed range in, winners / finish steps out; on the
  block workers for the virtual GPU (``workers=True``).
* :func:`makespan_compiled` -- the virtual GPU's grid makespan
  (:func:`repro.gpu.scheduler.greedy_makespan`) with its heap in C.
* :func:`run_playouts_tracked_compiled` -- bit-identical drop-in for
  :func:`repro.games.batch.run_playouts_tracked` (benchmark ladder and
  tests).
* :data:`COMPILED_GAMES` -- games with a compiled kernel.
* :class:`ArenaColumns` / :func:`select_expand_compiled` /
  :func:`backprop_compiled` / :func:`backprop_winners_compiled` -- the
  tree arena's kernels (one C call per ``TreeArena.select_expand`` /
  ``select_round`` / ``backprop_many`` / ``backprop_winners``);
  :class:`TenantRows` / :func:`select_expand_many_compiled` /
  :func:`backprop_winners_many_compiled` -- the same over many arenas
  in one call (``repro.core.arena.select_round_many`` /
  ``backprop_winners_many``); :class:`RootLoop` -- a ``root:N`` or
  ``sequential`` session's select loop, which either select kernel
  delivers the session's answers to and runs to its next playout demand
  (``TreeArena.select_loop``, ``repro.core.arena.select_loops``), and
  :func:`loop_positions` gathers loops' playout rows into launch
  columns;
  :func:`expand_kernel` / :func:`expand_compiled` -- the expansion step
  alone, for its differential tests.
"""

from repro.compiled.build import (
    block_workers,
    build_library,
    compiled_disabled,
    kernel_body,
    load_library,
    reset_cache,
    unavailable_reason,
)
from repro.compiled.runner import (
    BAD_PLIES,
    COMPILED_GAMES,
    ArenaColumns,
    RootLoop,
    TenantRows,
    backprop_compiled,
    backprop_winners_compiled,
    backprop_winners_many_compiled,
    compiled_available,
    distinct_trees,
    distinct_trees_error,
    expand_compiled,
    expand_kernel,
    launch_compiled,
    loop_positions,
    makespan_compiled,
    run_playouts_tracked_compiled,
    select_expand_compiled,
    select_expand_many_compiled,
)

__all__ = [
    "ArenaColumns",
    "BAD_PLIES",
    "COMPILED_GAMES",
    "RootLoop",
    "TenantRows",
    "backprop_compiled",
    "backprop_winners_compiled",
    "backprop_winners_many_compiled",
    "block_workers",
    "build_library",
    "compiled_available",
    "compiled_disabled",
    "distinct_trees",
    "distinct_trees_error",
    "expand_compiled",
    "expand_kernel",
    "kernel_body",
    "launch_compiled",
    "load_library",
    "loop_positions",
    "makespan_compiled",
    "reset_cache",
    "run_playouts_tracked_compiled",
    "select_expand_compiled",
    "select_expand_many_compiled",
    "unavailable_reason",
]
