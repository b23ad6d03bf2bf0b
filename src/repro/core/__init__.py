"""MCTS core: the search tree, UCB selection, and all engines.

Engines (one per parallelisation scheme in the paper):

* :class:`SequentialMcts` -- one CPU core, the opponent/baseline.
* :class:`LeafParallelMcts` -- one tree, the whole GPU grid simulates
  from the selected leaf.
* :class:`RootParallelMcts` -- n independent CPU trees with root-level
  vote aggregation (the authors' earlier CPU scheme).
* :class:`BlockParallelMcts` -- **the paper's contribution**: one tree
  per GPU block, block threads simulate their tree's leaf.
* :class:`HybridMcts` -- block parallel with asynchronous kernels and
  overlapped CPU iterations (paper Figure 4).
* :class:`TreeParallelMcts` -- shared tree + virtual loss or WU-UCT
  in-flight accounting (literature baseline, ablations only).
* :class:`PipelineMcts` -- shared tree with the select/expand/playout/
  backprop stages software-pipelined over the virtual clock (3PMCTS).
* :class:`MultiGpuMcts` -- rank-per-GPU root aggregation over simulated
  MPI (paper Figure 9).

Engines are named by *spec strings* -- ``kind:args`` plus composable,
order-independent ``@modifier`` suffixes (``tree:8@wuct@arena``); see
:class:`EngineSpec`.
"""

from repro.core.arena import ArenaInvariantError, TreeArena
from repro.core.backend import (
    BACKENDS,
    NodeForest,
    make_forest,
    make_tree,
    restore_forest,
    restore_tree,
    validate_backend,
)
from repro.core.base import (
    BatchExecutor,
    Engine,
    tally,
)
from repro.core.checkpoint import (
    CHECKPOINT_FORMAT_VERSION,
    CheckpointError,
    EngineSnapshot,
    load_checkpoint,
    save_checkpoint,
    snapshot_bytes,
    snapshot_from_bytes,
)
from repro.core.block_parallel import BlockParallelMcts
from repro.core.hybrid import HybridMcts
from repro.core.leaf_parallel import LeafParallelMcts
from repro.core.multigpu import MultiGpuMcts
from repro.core.pipeline import PipelineMcts
from repro.core.policy import (
    MAX_RATIO,
    MAX_VISITS,
    MAX_WINS,
    PARALLEL_MODES,
    select_move,
    validate_parallel_mode,
)
from repro.core.results import (
    EXTRA_KEYS,
    INTEGRITY_EXTRA_KEYS,
    SearchResult,
    extras_schema,
    register_extra_keys,
)
from repro.core.root_parallel import RootParallelMcts
from repro.core.sequential import SequentialMcts
from repro.core.spec import (
    EngineKind,
    EngineSpec,
    SpecModifier,
    engine_kinds,
    make_engine,
    spec_modifiers,
    with_stack,
)
from repro.core.tree import (
    Node,
    SearchTree,
    aggregate_stat_dicts,
    majority_vote_stat_dicts,
    trimmed_vote_stat_dicts,
)
from repro.core.tree_parallel import TreeParallelMcts

__all__ = [
    "Engine",
    "EngineKind",
    "EngineSpec",
    "SpecModifier",
    "engine_kinds",
    "make_engine",
    "spec_modifiers",
    "with_stack",
    "SearchResult",
    "EXTRA_KEYS",
    "INTEGRITY_EXTRA_KEYS",
    "extras_schema",
    "register_extra_keys",
    "PARALLEL_MODES",
    "validate_parallel_mode",
    "SearchTree",
    "TreeArena",
    "NodeForest",
    "BACKENDS",
    "make_tree",
    "make_forest",
    "validate_backend",
    "Node",
    "aggregate_stat_dicts",
    "majority_vote_stat_dicts",
    "trimmed_vote_stat_dicts",
    "select_move",
    "MAX_VISITS",
    "MAX_RATIO",
    "MAX_WINS",
    "SequentialMcts",
    "LeafParallelMcts",
    "RootParallelMcts",
    "BlockParallelMcts",
    "HybridMcts",
    "TreeParallelMcts",
    "PipelineMcts",
    "MultiGpuMcts",
    "BatchExecutor",
    "tally",
    "ArenaInvariantError",
    "restore_tree",
    "restore_forest",
    "CHECKPOINT_FORMAT_VERSION",
    "CheckpointError",
    "EngineSnapshot",
    "save_checkpoint",
    "load_checkpoint",
    "snapshot_bytes",
    "snapshot_from_bytes",
]
