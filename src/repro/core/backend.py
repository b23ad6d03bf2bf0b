"""Tree backends: one store protocol, two representations.

Every engine keeps its search state in a *store* of ``n_trees`` trees
-- a single tree is a store of one -- on one of two interchangeable
*backends*:

* ``"arena"`` -- the struct-of-arrays
  :class:`repro.core.arena.TreeArena`, which implements the protocol
  itself: compiled selection and backprop, a lockstep
  ``select_round`` over all trees per iteration.
* ``"node"`` -- :class:`NodeForest`, a list of pointer trees
  (:class:`repro.core.tree.SearchTree`, one Python object per node).
  The reference implementation: simple, debuggable, and the
  differential-testing oracle; same seeds give bit-identical results.

Engines address tree positions through opaque *refs* (``Node`` objects
or integer slots) and never look inside them, so the same engine code
drives both representations (docs/tree_arena.md, "The engine-facing
surface", lists the protocol).  :func:`make_forest` / :func:`make_tree`
and :func:`restore_forest` / :func:`restore_tree` are the only
construction points; the backend string travels through ``EngineSpec``
(``block:16x32@arena``), the CLI ``--backend`` flag and the serving
layer.
"""

from __future__ import annotations

from typing import Sequence

from repro.compiled import distinct_trees
from repro.core.arena import TreeArena
from repro.core.tree import SearchTree
from repro.games.base import Game, GameState
from repro.games.batch import Positions
from repro.rng import XorShift64Star

#: Supported tree backends.
BACKENDS = ("node", "arena")

#: The backend every constructor, spec and CLI flag defaults to.
DEFAULT_BACKEND = "node"


def validate_backend(backend: str) -> str:
    """Return ``backend`` if supported, raise ``ValueError`` otherwise."""
    if backend not in BACKENDS:
        raise ValueError(
            f"unknown tree backend {backend!r}; available: {BACKENDS}"
        )
    return backend


class NodeForest:
    """Pointer trees behind the store protocol :class:`TreeArena`
    implements itself -- the reference forest, and the only adapter."""

    def __init__(self, trees: "list[SearchTree]") -> None:
        self.trees = trees

    @property
    def n_trees(self) -> int:
        return len(self.trees)

    def select_expand(self, t: int = 0):
        return self.trees[t].select_expand()

    def select_round(self, indices=None):
        """One ``select_expand`` per tree of ``indices`` (all when
        ``None``): ``(refs, depths, states, terminal)``, four lists.
        A repeated or out-of-range index is the arena's ``ValueError``,
        raised before any tree is walked."""
        if indices is None:
            which = range(self.n_trees)
        else:
            which = distinct_trees(indices, self.n_trees)
        refs, depths = [], []
        for t in which:
            node, depth = self.trees[t].select_expand()
            refs.append(node)
            depths.append(depth)
        return (
            refs,
            depths,
            [node.state for node in refs],
            [node.terminal for node in refs],
        )

    def select_expand_all(self, indices=None):
        return self.select_round(indices)[:2]

    # Path updates walk parent links from the ref and read nothing of
    # the tree they are called on: the first tree serves them all.

    def backprop(
        self, leaf, simulations, wins_black, wins_white, draws=0.0
    ) -> None:
        self.trees[0].backprop(
            leaf, simulations, wins_black, wins_white, draws
        )

    def backprop_winner(self, leaf, winner, simulations=1) -> None:
        self.trees[0].backprop_winner(leaf, winner, simulations)

    def backprop_winners(self, leaves, winners) -> None:
        """One playout result per tree: ``winners[j]`` at
        ``leaves[j]`` (distinct trees, as many winners as leaves)."""
        if len(winners) != len(leaves):
            raise ValueError(
                f"{len(winners)} winners for {len(leaves)} leaves"
            )
        backprop_winner = self.trees[0].backprop_winner
        for leaf, winner in zip(leaves, winners):
            backprop_winner(leaf, winner)

    def backprop_block(self, leaves, simulations, winners_2d) -> None:
        """Per-tree playout tallies: row ``b`` of ``winners_2d`` holds
        the outcomes of the ``simulations`` playouts from
        ``leaves[b]``."""
        from repro.core.base import tally

        for leaf, winners in zip(leaves, winners_2d):
            self.backprop(leaf, simulations, *tally(winners))

    def apply_virtual_loss(self, leaf, amount: float = 1.0) -> None:
        self.trees[0].apply_virtual_loss(leaf, amount)

    def revert_virtual_loss(self, leaf, amount: float = 1.0) -> None:
        self.trees[0].revert_virtual_loss(leaf, amount)

    def state_of(self, ref) -> GameState:
        return ref.state

    def positions_of(self, refs) -> Positions:
        return Positions([ref.state for ref in refs])

    def terminal_of(self, ref) -> bool:
        return ref.terminal

    def winner_of(self, ref) -> int:
        return ref.winner

    def root_stats(self, t: int = 0) -> dict[int, tuple[float, float]]:
        return self.trees[t].root_stats()

    def root_stats_of(
        self, indices=None
    ) -> list[dict[int, tuple[float, float]]]:
        which = range(self.n_trees) if indices is None else indices
        return [self.trees[t].root_stats() for t in which]

    def poison_root(self, t: int, bonus: float) -> bool:
        """See :meth:`SearchTree.poison_root` (applied to tree ``t``;
        False for a tree the forest does not hold)."""
        return t < self.n_trees and self.trees[t].poison_root(bonus)

    def audit_tree(self, t: int = 0, legal_moves=None) -> str | None:
        """See :meth:`SearchTree.audit_tree` (applied to tree ``t``)."""
        return self.trees[t].audit_tree(legal_moves)

    @property
    def node_count(self) -> int:
        return sum(t.node_count for t in self.trees)

    @property
    def max_depth(self) -> int:
        return max(t.max_depth for t in self.trees)

    def per_tree_nodes(self) -> list[int]:
        return [t.node_count for t in self.trees]

    def per_tree_depth(self) -> list[int]:
        return [t.max_depth for t in self.trees]

    def ref_token(self, ref, t: int = 0) -> int:
        """See :meth:`SearchTree.ref_token` (a ref of tree ``t``)."""
        return self.trees[t].ref_token(ref)

    def ref_from_token(self, token: int, t: int = 0):
        return self.trees[t].ref_from_token(token)

    def release(self) -> None:
        """End the session: the pointer trees are left to the garbage
        collector (the arena's own ``release`` keeps its columns for
        the next session)."""


def make_forest(
    backend: str,
    game: Game,
    root_state: GameState,
    rngs: Sequence[XorShift64Star],
    ucb_c: float = 1.0,
    parallel_mode: str = "vloss",
):
    """``len(rngs)`` trees from one root on the chosen backend."""
    validate_backend(backend)
    if backend == "arena":
        return TreeArena.open(
            game, root_state, list(rngs), ucb_c, parallel_mode
        )
    return NodeForest(
        [
            SearchTree(game, root_state, rng, ucb_c, parallel_mode)
            for rng in rngs
        ]
    )


def make_tree(
    backend: str,
    game: Game,
    root_state: GameState,
    rng: XorShift64Star,
    ucb_c: float = 1.0,
    parallel_mode: str = "vloss",
):
    """One tree on the chosen backend: a forest of one."""
    return make_forest(backend, game, root_state, [rng], ucb_c, parallel_mode)


#: The on-disk ``kind`` of a store's checkpoint form, by the session
#: key it is held under and its backend.  A ``node_tree`` is
#: ``SearchTree.snapshot()`` as it stands (which writes that kind), a
#: ``node_forest`` lists them under ``trees``, both arena kinds wrap
#: ``TreeArena.snapshot()`` under ``arena``.
_SNAPSHOT_KINDS = {
    "tree": {"node": "node_tree", "arena": "arena_tree"},
    "forest": {"node": "node_forest", "arena": "arena_forest"},
}


def snapshot_forest(store, key: str = "forest") -> dict:
    """The checkpoint form of a store held under session key ``key``
    (``tree`` -- a forest of one -- or ``forest``)."""
    kinds = _SNAPSHOT_KINDS[key]
    if isinstance(store, TreeArena):
        return {"kind": kinds["arena"], "arena": store.snapshot()}
    trees = [tree.snapshot() for tree in store.trees]
    if key == "tree":
        (snap,) = trees
        return snap
    return {"kind": kinds["node"], "trees": trees}


def restore_forest(game: Game, snap: dict, key: str = "forest"):
    """Rebuild a store (either backend) from :func:`snapshot_forest`.

    Restored arenas are audited with :meth:`TreeArena.validate`
    before use -- a corrupted checkpoint fails loudly here, not as a
    wrong move later.
    """
    kinds = _SNAPSHOT_KINDS[key]
    kind = snap.get("kind")
    if kind == kinds["arena"]:
        arena = TreeArena.from_snapshot(game, snap["arena"])
        arena.validate()
        return arena
    if kind == kinds["node"]:
        trees = [snap] if key == "tree" else snap["trees"]
        return NodeForest(
            [SearchTree.from_snapshot(game, tree) for tree in trees]
        )
    raise ValueError(f"not a {key} snapshot: kind={kind!r}")


def restore_tree(game: Game, snap: dict):
    """Rebuild a single tree (either backend) from its snapshot."""
    return restore_forest(game, snap, "tree")
