"""Tree backends: one protocol, two representations.

Every engine stores its search state behind one of two interchangeable
*backends*:

* ``"node"`` -- the pointer tree (:class:`repro.core.tree.SearchTree`,
  one Python object per node).  The reference implementation: simple,
  debuggable, and the differential-testing oracle.
* ``"arena"`` -- the struct-of-arrays
  :class:`repro.core.arena.TreeArena` with compiled selection and
  backprop; same seeds give bit-identical results, multi-tree engines
  get a lockstep ``select_expand_all`` over all trees per iteration.

Engines address tree positions through opaque *refs* (``Node`` objects
or integer slots) and never look inside them, so the same engine code
drives both representations.  :func:`make_tree` and :func:`make_forest`
are the only construction points; the backend string travels through
``EngineSpec`` (``block:16x32@arena``), the CLI ``--backend`` flag and
the serving layer.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.core.arena import ArenaInvariantError, TreeArena
from repro.core.tree import (
    SearchTree,
    aggregate_stat_dicts,
    majority_vote_stat_dicts,
    trimmed_vote_stat_dicts,
)
from repro.integrity.audit import audit_root_stats
from repro.games.base import Game, GameState
from repro.rng import XorShift64Star

#: Supported tree backends.
BACKENDS = ("node", "arena")


def validate_backend(backend: str) -> str:
    """Return ``backend`` if supported, raise ``ValueError`` otherwise."""
    if backend not in BACKENDS:
        raise ValueError(
            f"unknown tree backend {backend!r}; available: {BACKENDS}"
        )
    return backend


def _audit_arena_tree(
    arena: TreeArena, i: int, legal_moves=None
) -> str | None:
    """Audit tree ``i`` of an arena: the full structural validation
    (visit conservation, win bounds, span bookkeeping) restricted to
    that tree, plus the backend-neutral root-stats checks."""
    try:
        arena.validate(trees=(i,))
    except ArenaInvariantError as exc:
        return str(exc)
    return audit_root_stats(arena.root_stats(i), legal_moves)


class ArenaTree:
    """Single-tree adapter giving a :class:`TreeArena` the pointer
    tree's surface (select/backprop/virtual-loss/root stats)."""

    def __init__(
        self,
        game: Game,
        root_state: GameState,
        rng: XorShift64Star,
        ucb_c: float = 1.0,
        selection_rule: str = "ucb1",
        parallel_mode: str = "vloss",
    ) -> None:
        self.arena = TreeArena(
            game,
            root_state,
            [rng],
            ucb_c,
            selection_rule,
            parallel_mode=parallel_mode,
        )

    def select_expand(self) -> tuple[int, int]:
        return self.arena.select_expand(0)

    def backprop(
        self,
        ref: int,
        simulations: int,
        wins_black: float,
        wins_white: float,
        draws: float = 0.0,
    ) -> None:
        self.arena.backprop(
            ref, simulations, wins_black, wins_white, draws
        )

    def backprop_winner(
        self, ref: int, winner: int, simulations: int = 1
    ) -> None:
        self.arena.backprop_winner(ref, winner, simulations)

    def apply_virtual_loss(self, ref: int, amount: float = 1.0) -> None:
        self.arena.apply_virtual_loss(ref, amount)

    def revert_virtual_loss(self, ref: int, amount: float = 1.0) -> None:
        self.arena.revert_virtual_loss(ref, amount)

    def state_of(self, ref: int) -> GameState:
        return self.arena.state_of(ref)

    def terminal_of(self, ref: int) -> bool:
        return self.arena.terminal_of(ref)

    def winner_of(self, ref: int) -> int:
        return self.arena.winner_of(ref)

    def root_stats(self) -> dict[int, tuple[float, float]]:
        return self.arena.root_stats(0)

    @property
    def node_count(self) -> int:
        return self.arena.node_count(0)

    @property
    def max_depth(self) -> int:
        return self.arena.max_depth(0)

    def depth(self) -> int:
        return self.max_depth

    def ref_token(self, ref: int) -> int:
        """Arena refs are stable slot numbers: the token is the ref."""
        return int(ref)

    def ref_from_token(self, token: int) -> int:
        return int(token)

    def poison_root(self, i: int, bonus: float) -> bool:
        """See :meth:`SearchTree.poison_root`."""
        return i == 0 and self.arena.poison_root(0, bonus)

    def audit_tree(self, i: int, legal_moves=None) -> str | None:
        return _audit_arena_tree(self.arena, 0, legal_moves)

    def snapshot(self) -> dict:
        return {"kind": "arena_tree", "arena": self.arena.snapshot()}

    @classmethod
    def from_snapshot(cls, game: Game, snap: dict) -> "ArenaTree":
        tree = object.__new__(cls)
        tree.arena = TreeArena.from_snapshot(game, snap["arena"])
        return tree


def make_tree(
    backend: str,
    game: Game,
    root_state: GameState,
    rng: XorShift64Star,
    ucb_c: float = 1.0,
    selection_rule: str = "ucb1",
    parallel_mode: str = "vloss",
):
    """One tree on the chosen backend."""
    validate_backend(backend)
    cls = ArenaTree if backend == "arena" else SearchTree
    return cls(
        game,
        root_state,
        rng,
        ucb_c,
        selection_rule,
        parallel_mode=parallel_mode,
    )


class NodeForest:
    """Many independent pointer trees (the reference forest)."""

    def __init__(
        self,
        game: Game,
        root_state: GameState,
        rngs: Sequence[XorShift64Star],
        ucb_c: float = 1.0,
        selection_rule: str = "ucb1",
    ) -> None:
        self.trees = [
            SearchTree(game, root_state, rng, ucb_c, selection_rule)
            for rng in rngs
        ]

    @property
    def n_trees(self) -> int:
        return len(self.trees)

    def select_expand_all(self, indices=None):
        which = range(self.n_trees) if indices is None else indices
        refs, depths = [], []
        for i in which:
            node, depth = self.trees[i].select_expand()
            refs.append(node)
            depths.append(depth)
        return refs, depths

    def select_expand(self, i: int):
        return self.trees[i].select_expand()

    def state_of(self, ref) -> GameState:
        return ref.state

    def terminal_of(self, ref) -> bool:
        return ref.terminal

    def winner_of(self, ref) -> int:
        return ref.winner

    def backprop(
        self, i, ref, simulations, wins_black, wins_white, draws=0.0
    ) -> None:
        self.trees[i].backprop(
            ref, simulations, wins_black, wins_white, draws
        )

    def backprop_winner(self, i, ref, winner, simulations=1) -> None:
        self.trees[i].backprop_winner(ref, winner, simulations)

    def backprop_winners(self, indices, refs, winners) -> None:
        """One playout result per tree: ``winners[j]`` at ``refs[j]``
        of tree ``indices[j]`` (distinct trees)."""
        for i, ref, winner in zip(indices, refs, winners):
            self.trees[i].backprop_winner(ref, winner)

    def backprop_block(self, refs, simulations, winners_2d) -> None:
        """Per-tree playout tallies: row ``b`` of ``winners_2d`` holds
        tree ``b``'s playout outcomes."""
        from repro.core.base import tally

        for b, tree in enumerate(self.trees):
            wins_b, wins_w, draws = tally(winners_2d[b])
            tree.backprop(refs[b], simulations, wins_b, wins_w, draws)

    def root_stats(self, i: int) -> dict[int, tuple[float, float]]:
        return self.trees[i].root_stats()

    def aggregate_stats(self, indices=None) -> dict[int, tuple[float, float]]:
        which = self.trees if indices is None else [
            self.trees[i] for i in indices
        ]
        return aggregate_stat_dicts([t.root_stats() for t in which])

    def majority_vote_stats(
        self, indices=None
    ) -> dict[int, tuple[float, float]]:
        which = self.trees if indices is None else [
            self.trees[i] for i in indices
        ]
        return majority_vote_stat_dicts([t.root_stats() for t in which])

    def trimmed_vote_stats(
        self, indices=None, trim: float = 0.2
    ) -> dict[int, tuple[float, float]]:
        which = self.trees if indices is None else [
            self.trees[i] for i in indices
        ]
        return trimmed_vote_stat_dicts(
            [t.root_stats() for t in which], trim=trim
        )

    def poison_root(self, i: int, bonus: float) -> bool:
        """See :meth:`SearchTree.poison_root` (applied to tree ``i``)."""
        return self.trees[i].poison_root(0, bonus)

    def audit_tree(self, i: int, legal_moves=None) -> str | None:
        """See :meth:`SearchTree.audit_tree` (applied to tree ``i``)."""
        return self.trees[i].audit_tree(0, legal_moves)

    def max_depth(self) -> int:
        return max(t.max_depth for t in self.trees)

    def node_count(self) -> int:
        return sum(t.node_count for t in self.trees)

    def per_tree_depth(self) -> list[int]:
        return [t.max_depth for t in self.trees]

    def per_tree_nodes(self) -> list[int]:
        return [t.node_count for t in self.trees]

    def snapshot(self) -> dict:
        return {
            "kind": "node_forest",
            "trees": [t.snapshot() for t in self.trees],
        }

    @classmethod
    def from_snapshot(cls, game: Game, snap: dict) -> "NodeForest":
        forest = object.__new__(cls)
        forest.trees = [
            SearchTree.from_snapshot(game, s) for s in snap["trees"]
        ]
        return forest


class ArenaForest:
    """Many trees in one arena with lockstep selection."""

    def __init__(
        self,
        game: Game,
        root_state: GameState,
        rngs: Sequence[XorShift64Star],
        ucb_c: float = 1.0,
        selection_rule: str = "ucb1",
    ) -> None:
        self.arena = TreeArena(
            game, root_state, list(rngs), ucb_c, selection_rule
        )

    @property
    def n_trees(self) -> int:
        return self.arena.n_trees

    def select_expand_all(self, indices=None):
        return self.arena.select_expand_all(indices)

    def select_expand(self, i: int):
        return self.arena.select_expand(i)

    def state_of(self, ref) -> GameState:
        return self.arena.state_of(ref)

    def terminal_of(self, ref) -> bool:
        return self.arena.terminal_of(ref)

    def winner_of(self, ref) -> int:
        return self.arena.winner_of(ref)

    def backprop(
        self, i, ref, simulations, wins_black, wins_white, draws=0.0
    ) -> None:
        self.arena.backprop(
            ref, simulations, wins_black, wins_white, draws
        )

    def backprop_winner(self, i, ref, winner, simulations=1) -> None:
        self.arena.backprop_winner(ref, winner, simulations)

    def backprop_winners(self, indices, refs, winners) -> None:
        winners = np.asarray(winners)
        self.arena.backprop_many(
            refs, 1, winners == 1, winners == -1, winners == 0
        )

    def backprop_block(self, refs, simulations, winners_2d) -> None:
        winners = np.asarray(winners_2d)
        wins_b = (winners == 1).sum(axis=1)
        wins_w = (winners == -1).sum(axis=1)
        draws = (winners == 0).sum(axis=1)
        self.arena.backprop_many(
            np.asarray(refs, dtype=np.int64),
            simulations,
            wins_b,
            wins_w,
            draws,
        )

    def root_stats(self, i: int) -> dict[int, tuple[float, float]]:
        return self.arena.root_stats(i)

    def aggregate_stats(self, indices=None) -> dict[int, tuple[float, float]]:
        if indices is None:
            return self.arena.aggregate_stats()
        return aggregate_stat_dicts(
            [self.arena.root_stats(i) for i in indices]
        )

    def majority_vote_stats(
        self, indices=None
    ) -> dict[int, tuple[float, float]]:
        if indices is None:
            return self.arena.majority_vote_stats()
        return majority_vote_stat_dicts(
            [self.arena.root_stats(i) for i in indices]
        )

    def trimmed_vote_stats(
        self, indices=None, trim: float = 0.2
    ) -> dict[int, tuple[float, float]]:
        which = range(self.n_trees) if indices is None else indices
        return trimmed_vote_stat_dicts(
            [self.arena.root_stats(i) for i in which], trim=trim
        )

    def poison_root(self, i: int, bonus: float) -> bool:
        """See :meth:`SearchTree.poison_root`."""
        return self.arena.poison_root(i, bonus)

    def audit_tree(self, i: int, legal_moves=None) -> str | None:
        return _audit_arena_tree(self.arena, i, legal_moves)

    def max_depth(self) -> int:
        return int(self.arena.tree_max_depth.max())

    def node_count(self) -> int:
        return int(self.arena.tree_node_count.sum())

    def per_tree_depth(self) -> list[int]:
        return [int(d) for d in self.arena.tree_max_depth]

    def per_tree_nodes(self) -> list[int]:
        return [int(n) for n in self.arena.tree_node_count]

    def snapshot(self) -> dict:
        return {"kind": "arena_forest", "arena": self.arena.snapshot()}

    @classmethod
    def from_snapshot(cls, game: Game, snap: dict) -> "ArenaForest":
        forest = object.__new__(cls)
        forest.arena = TreeArena.from_snapshot(game, snap["arena"])
        return forest


def restore_tree(game: Game, snap: dict):
    """Rebuild a single tree (either backend) from its snapshot.

    Restored arenas are audited with :meth:`TreeArena.validate`
    before use -- a corrupted checkpoint fails loudly here, not as a
    wrong move later.
    """
    kind = snap.get("kind")
    if kind == "node_tree":
        return SearchTree.from_snapshot(game, snap)
    if kind == "arena_tree":
        tree = ArenaTree.from_snapshot(game, snap)
        tree.arena.validate()
        return tree
    raise ValueError(f"not a tree snapshot: kind={kind!r}")


def restore_forest(game: Game, snap: dict):
    """Rebuild a forest (either backend) from its snapshot; arena
    forests are validated on the way in."""
    kind = snap.get("kind")
    if kind == "node_forest":
        return NodeForest.from_snapshot(game, snap)
    if kind == "arena_forest":
        forest = ArenaForest.from_snapshot(game, snap)
        forest.arena.validate()
        return forest
    raise ValueError(f"not a forest snapshot: kind={kind!r}")


def make_forest(
    backend: str,
    game: Game,
    root_state: GameState,
    rngs: Sequence[XorShift64Star],
    ucb_c: float = 1.0,
    selection_rule: str = "ucb1",
):
    """``len(rngs)`` trees from one root on the chosen backend."""
    validate_backend(backend)
    cls = ArenaForest if backend == "arena" else NodeForest
    return cls(game, root_state, rngs, ucb_c, selection_rule)
