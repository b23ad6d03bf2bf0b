"""Search result records shared by every engine.

Result *extras* carry per-engine telemetry under one ``family.metric``
naming convention (``tree.depth``, ``gpu.kernels``,
``integrity.detected``, ``pipeline.rounds``, ...).  Each engine kind
declares its extras schema in the :data:`EXTRA_KEYS` registry via
:func:`register_extra_keys`; :meth:`SearchResult.extras_schema` looks
the declaration up, and the test suite asserts every emitted key is
declared with the declared type.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

#: Engine name -> {extras key: value type}.  Declared, not inferred:
#: an engine emitting an undeclared key is a schema violation the test
#: suite catches.
EXTRA_KEYS: dict[str, dict[str, type]] = {}

#: The integrity-defense counters every guarded engine merges into its
#: extras (flat ``integrity.*`` keys; see repro.integrity.engine).
INTEGRITY_EXTRA_KEYS: dict[str, type] = {
    "integrity.detected": int,
    "integrity.escaped": int,
    "integrity.dropped_batches": int,
    "integrity.poisoned": int,
    "integrity.audits": int,
    "integrity.violations": int,
    "integrity.quarantined": list,
}

def register_extra_keys(
    engine: str, schema: Mapping[str, type]
) -> None:
    """Declare the extras keys engine kind ``engine`` may emit."""
    EXTRA_KEYS[engine] = dict(schema)


def extras_schema(engine: str) -> dict[str, type]:
    """The declared extras schema for ``engine`` (empty if none)."""
    return dict(EXTRA_KEYS.get(engine, {}))


@dataclass(frozen=True)
class SearchResult:
    """What one ``engine.search(state, budget)`` call produced.

    ``stats`` maps each root move to ``(visits, wins)`` -- aggregated
    across trees for the multi-tree engines.  ``simulations`` counts
    playouts (a leaf-parallel iteration contributes its whole grid),
    ``iterations`` counts engine loop iterations, and ``max_depth`` is
    the deepest tree path built (the paper's Figure 8 telemetry).
    """

    move: int
    stats: Mapping[int, tuple[float, float]]
    iterations: int
    simulations: int
    max_depth: int
    tree_nodes: int
    elapsed_s: float
    trees: int = 1
    extras: dict = field(default_factory=dict)
    #: Name of the engine kind that produced the result (keys the
    #: :data:`EXTRA_KEYS` schema registry; empty for hand-built
    #: results).
    engine: str = ""

    @property
    def root_visits(self) -> float:
        return sum(v for v, _ in self.stats.values())

    def extras_schema(self) -> dict[str, type]:
        """The declared extras schema for this result's engine kind."""
        return extras_schema(self.engine)
