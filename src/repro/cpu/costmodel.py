"""Per-operation virtual-time costs for CPU-side MCTS.

One sequential MCTS iteration is selection (walk down ``depth`` nodes),
expansion (create one node), one scalar playout (``plies`` moves), and
backpropagation (walk up ``depth`` nodes).  The constants below are the
calibration for Reversi on a paper-era Xeon core; see DESIGN.md
section 5.  Everything that touches the tree on the CPU -- including
the *sequential part* of the block-parallel scheme, whose growth with
the number of trees bends the paper's Figure 5 curves down -- is
charged through this model.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class CpuCostModel:
    """Virtual-time costs (seconds) of elementary MCTS operations."""

    name: str
    #: Cost per tree level walked during UCB selection.
    select_per_node_s: float = 0.4e-6
    #: Cost of expanding (allocating + initialising) one node.
    expand_s: float = 1.0e-6
    #: Cost per ply of one scalar random playout.
    playout_per_ply_s: float = 1.3e-6
    #: Cost per tree level walked during backpropagation.
    backprop_per_node_s: float = 0.2e-6
    #: Fixed per-iteration overhead (bookkeeping, dispatch).
    fixed_per_iteration_s: float = 3.0e-6
    #: Host-side cost of preparing/consuming one GPU tree's kernel data
    #: (the per-tree "sequential part" of block parallelism).
    tree_kernel_overhead_s: float = 25.0e-6

    def __post_init__(self) -> None:
        for field_name in (
            "select_per_node_s",
            "expand_s",
            "playout_per_ply_s",
            "backprop_per_node_s",
            "fixed_per_iteration_s",
            "tree_kernel_overhead_s",
        ):
            if getattr(self, field_name) < 0:
                raise ValueError(f"{field_name} must be non-negative")

    def selection_time(self, depth: int) -> float:
        """Walking down ``depth`` tree levels."""
        return self.select_per_node_s * max(depth, 0)

    def backprop_time(self, depth: int) -> float:
        """Walking back up ``depth`` tree levels."""
        return self.backprop_per_node_s * max(depth, 0)

    def playout_time(self, plies: int) -> float:
        """One scalar random playout of ``plies`` moves."""
        return self.playout_per_ply_s * max(plies, 0)

    def iteration_time(self, depth: int, playout_plies: int) -> float:
        """One full sequential MCTS iteration: fixed overhead +
        :meth:`selection_time` + expansion + :meth:`playout_time` +
        :meth:`backprop_time`, written out in that order (the same
        floats; every round engine charges it once per playout)."""
        return self.iteration_sum(max(depth, 0), max(playout_plies, 0))

    def iteration_sum(self, levels, plies):
        """:meth:`iteration_time` on clamped ``levels`` and ``plies``:
        ints, or float64 arrays that broadcast (a depth column and a
        ply row make the whole table, each cell the scalar's double)."""
        return (
            self.fixed_per_iteration_s
            + self.select_per_node_s * levels
            + self.expand_s
            + self.playout_per_ply_s * plies
            + self.backprop_per_node_s * levels
        )

    def tree_control_time(self, depth: int) -> float:
        """The CPU-side share of one GPU iteration for one tree:
        selection + expansion + backprop + kernel data marshalling
        (no playout -- the GPU does those)."""
        return (
            self.selection_time(depth)
            + self.expand_s
            + self.backprop_time(depth)
            + self.tree_kernel_overhead_s
        )


#: Calibrated model for the paper's Xeon X5670 (~1e4 Reversi playout
#: iterations per second at typical mid-game depth).
XEON_X5670 = CpuCostModel(name="xeon_x5670")

#: A model with zero costs, for algorithm-only unit tests where virtual
#: time must not influence behaviour.
FREE_CPU = CpuCostModel(
    name="free",
    select_per_node_s=0.0,
    expand_s=0.0,
    playout_per_ply_s=0.0,
    backprop_per_node_s=0.0,
    fixed_per_iteration_s=0.0,
    tree_kernel_overhead_s=0.0,
)

_MODELS = {m.name: m for m in (XEON_X5670, FREE_CPU)}


def cpu_cost_model(name: str) -> CpuCostModel:
    """Look up a cost model by name."""
    try:
        return _MODELS[name]
    except KeyError:
        raise ValueError(
            f"unknown cpu cost model {name!r}; available: {sorted(_MODELS)}"
        ) from None
