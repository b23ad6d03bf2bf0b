"""Array-backed MCTS tree arena with compiled selection and backprop.

The pointer tree in :mod:`repro.core.tree` stores one Python object per
node, so walking ``B`` block-parallel trees costs ``B`` pointer-chasing
UCB descents per iteration -- the *sequential part* that bends the
paper's Figure 5 curves.  :class:`TreeArena` stores one or many trees
in a single preallocated, growable struct-of-arrays -- every per-node
fact is a numpy column (``_COLUMNS``): parent, move, mover, visits,
wins, virtual loss, child spans, untried-move bitmasks and shuffled
orders, terminal flags, and the position itself as two occupancy planes
beside ``to_move``.  The per-tree RNG words are one ``uint64`` array.
No node owns a Python object; :meth:`TreeArena.state_of` builds the
game's state tuple on demand.

Layout invariants
-----------------
* A node's children occupy one contiguous *span* of slots.  The span
  is reserved at the node's **first** expansion, sized ``n_legal`` (the
  node's branching factor), and filled left to right as further
  children are expanded; ``child_count`` tracks the filled prefix.
* Trees never share nodes: each tree's slots form a disjoint set, so
  batched backpropagation walks disjoint paths.
* ``untried_order[i, :untried_count[i]]`` holds node ``i``'s
  not-yet-expanded moves in the same shuffled order the pointer backend
  would use, popped from the end; ``untried_mask`` mirrors it as a
  bitmask.
* ``to_move`` is +1/-1 for every initialised node and 0 for a
  reserved-but-unfilled span slot.

Bit-for-bit equivalence with the pointer backend
------------------------------------------------
The arena replicates the pointer tree's arithmetic exactly: the same
RNG consumption (one Fisher-Yates shuffle per created node, on the
move list ``Game.legal_mask`` extracts in ``legal_moves`` order), the
same UCB expression evaluation order, first-max tie-breaking, and
``math.log`` (libm's ``log`` in the kernels, which is what ``math.log``
calls; not ``np.log``, which differs in the last ulp on some inputs)
for the per-node visit logarithm.  Same seeds therefore
produce identical root statistics and chosen moves on both backends --
the differential test suite enforces this for every engine kind.

The payoff is that a round of tree work is two compiled calls working
in place on the columns (``repro/compiled/playout.c``, "Tree descent +
expansion"): :meth:`select_round` descends all ``B`` trees, expands one
child of each and hands back the leaves' states and terminal flags as
plain lists (:meth:`select_expand_all` is the same call read as two
arrays, and :meth:`positions_of` gathers the leaves' positions as the
columns a kernel launch reads -- what the GPU engines step through),
:meth:`backprop_winners` / :meth:`backprop_many` walk all
``B`` paths, :meth:`select_expand` is the same kernel on one tree.
That needs a kernel for the game and a C toolchain; without them the
Python bodies (:meth:`TreeArena._descend`, ``_expand``, ``backprop``)
do the same work tree by tree -- same draws, same node ids
(docs/tree_arena.md, "Compiled descent and backprop").

An arena outlives its session: :meth:`TreeArena.release` resets the
rows the session used and parks the arena on a free list, and
:meth:`TreeArena.open` reopens it for the next session of the same
game and tree count -- columns, capacity and bound kernel columns kept
(docs/tree_arena.md, "Growth and compaction").
"""

from __future__ import annotations

import math
from itertools import accumulate, chain

import numpy as np

from repro.compiled import (
    BAD_PLIES,
    ArenaColumns,
    RootLoop,
    TenantRows,
    backprop_compiled,
    backprop_winners_compiled,
    backprop_winners_many_compiled,
    distinct_trees,
    distinct_trees_error,
    loop_positions,
    select_expand_compiled,
    select_expand_many_compiled,
)
from repro.compiled.runner import _tree_library
from repro.core.checkpoint import check_selection_rule
from repro.core.policy import validate_parallel_mode
from repro.games.base import Game, GameState
from repro.games.batch import Positions
from repro.integrity.audit import audit_root_stats
from repro.rng import XorShift64Star
from repro.util.bitops import bits_of

_U64_MASK = (1 << 64) - 1


class ArenaInvariantError(RuntimeError):
    """Raised by :meth:`TreeArena.validate` on a corrupted arena."""


def _check_session(rngs, ucb_c, parallel_mode) -> None:
    if ucb_c < 0:
        raise ValueError(f"ucb_c must be non-negative: {ucb_c}")
    validate_parallel_mode(parallel_mode)
    if not rngs:
        raise ValueError("arena needs at least one tree RNG")


class TreeArena:
    """``n_trees`` MCTS trees in one struct-of-arrays node store."""

    def __init__(
        self,
        game: Game,
        root_state: GameState,
        rngs: "list[XorShift64Star]",
        ucb_c: float = 1.0,
        capacity: int | None = None,
        parallel_mode: str = "vloss",
    ) -> None:
        _check_session(rngs, ucb_c, parallel_mode)
        self._attach(game)
        self.n_trees = n = len(rngs)
        self._cap = 0
        self._make_arrays(capacity if capacity else max(256, 8 * n))
        #: Each tree's xorshift64* word, adopted from ``rngs`` (the
        #: generator objects themselves are not advanced).
        self.rng_state = np.zeros(n, dtype=np.uint64)
        self.roots = np.zeros(n, dtype=np.int64)
        self.tree_node_count = np.zeros(n, dtype=np.int64)
        self.tree_max_depth = np.zeros(n, dtype=np.int64)
        self._start(root_state, rngs, ucb_c, parallel_mode)

    @classmethod
    def open(
        cls,
        game: Game,
        root_state: GameState,
        rngs: "list[XorShift64Star]",
        ucb_c: float = 1.0,
        parallel_mode: str = "vloss",
    ) -> "TreeArena":
        """A new session's arena: a released one of the same game and
        tree count reopened in place -- its columns, its capacity and
        its bound :class:`ArenaColumns` kept -- or, when none is free,
        a freshly built one.  Either holds exactly what the
        constructor's would (node ids depend only on allocation order,
        never on capacity)."""
        free = _FREE_ARENAS.get((game.name, len(rngs)))
        if not free:
            return cls(
                game, root_state, rngs, ucb_c, parallel_mode=parallel_mode
            )
        _check_session(rngs, ucb_c, parallel_mode)
        arena = free.pop()
        arena.game = game
        cols = arena._cols
        if cols is not False and (cols is None) != (
            _tree_library(game.name) is None
        ):
            # The toolchain came or went (REPRO_COMPILED set and the
            # library cache reset at run time): resolve the bodies
            # again on first use.
            arena._cols = False
        arena._start(root_state, rngs, ucb_c, parallel_mode)
        return arena

    def _start(self, root_state, rngs, ucb_c, parallel_mode) -> None:
        """Begin a session on all-default columns: the selection
        policy, the trees' generator words, one root per tree in slots
        ``0 .. n - 1``.  The per-tree arrays are written in place --
        bound columns hold their addresses."""
        self.ucb_c = ucb_c
        self.parallel_mode = parallel_mode
        if self._cols:
            self._cols.take_policy(self)
        self.rng_state[:] = [rng.getstate() for rng in rngs]
        #: Was virtual loss ever applied?  (Checkpoint payload field.)
        self._vloss_active = False
        self._allocated = 0
        self.roots[:] = [self._alloc_span(1) for _ in range(self.n_trees)]
        self.tree_node_count[:] = 1
        self.tree_max_depth[:] = 0
        self._init_roots(root_state)

    def release(self) -> None:
        """End the session: every column back to its default over the
        rows it used, and the arena onto the free list
        :meth:`open` reopens from.  The store must not be read again.
        A second call does nothing."""
        n = self._allocated
        if not n:
            return
        for name, _, default, _ in self._COLUMNS:
            getattr(self, name)[:n] = default
        self._allocated = 0
        _FREE_ARENAS.setdefault((self.game.name, self.n_trees), []).append(
            self
        )

    # -- storage ------------------------------------------------------------

    #: Every per-node column, declared once: ``(name, dtype, default,
    #: attribute naming the row width or None)``.  Allocation, growth,
    #: compaction and snapshots all walk this table.
    _COLUMNS = (
        ("parent", np.int64, -1, None),
        ("move", np.int32, -1, None),
        ("mover", np.int8, 0, None),
        ("to_move", np.int8, 0, None),
        ("visits", np.float64, 0, None),
        ("wins", np.float64, 0, None),
        ("vloss", np.float64, 0, None),
        ("terminal", bool, 0, None),
        ("winner", np.int8, 0, None),
        ("child_start", np.int64, -1, None),
        ("child_count", np.int32, 0, None),
        ("n_legal", np.int32, 0, None),
        ("untried_count", np.int32, 0, None),
        ("untried_mask", np.uint64, 0, "mask_words"),
        ("plane1", np.uint64, 0, None),
        ("plane2", np.uint64, 0, None),
        ("untried_order", np.uint8, 0, "order_width"),
    )

    def _attach(self, game: Game) -> None:
        if game.num_moves > 256:
            raise ValueError(
                f"{game.name}: move ids up to {game.num_moves} do not "
                f"fit the arena's uint8 untried-order rows"
            )
        self.game = game
        #: uint64 words per untried-move bitmask row.
        self.mask_words = (game.num_moves + 63) // 64
        #: Slots per untried-order row (no node has more legal moves).
        self.order_width = game.num_moves
        #: Tree-RNG adapter for the Python expansion body.
        self._shuffler = XorShift64Star.from_state(1)

    def _make_arrays(self, cap: int, keep: int = 0) -> None:
        """(Re)allocate every column at ``cap`` rows: the first
        ``keep`` rows carry over, the rest hold the defaults."""
        for name, dtype, default, width in self._COLUMNS:
            shape = (cap,) if width is None else (cap, getattr(self, width))
            column = np.zeros(shape, dtype=dtype)
            if default:
                column.fill(default)
            if keep:
                column[:keep] = getattr(self, name)[:keep]
            setattr(self, name, column)
        self._cap = cap
        #: Column addresses and kernels for the compiled bodies, bound
        #: on first use: ``False`` = not yet, ``None`` = there are none.
        self._cols: "ArenaColumns | None | bool" = False

    def _compiled(self) -> "ArenaColumns | None":
        """The compiled bodies' handle on this arena, or ``None`` when
        the Python bodies run (no toolchain, ``REPRO_COMPILED=0``, no
        kernel for the game).  Resolved once per arena (again after
        :meth:`compact`), so a steady-state round looks nothing up."""
        if self._cols is False:
            self._cols = ArenaColumns.bind(self)
        return self._cols

    def _grow(self, min_cap: int) -> None:
        cols = self._cols
        # Slots past ``_allocated`` are virgin: nothing to carry over.
        self._make_arrays(max(2 * self._cap, min_cap), self._allocated)
        if cols:
            # Bound before: only the columns moved.
            cols.take_columns(self)
        self._cols = cols

    def _alloc_span(self, n: int) -> int:
        """Reserve ``n`` contiguous slots; returns the span start."""
        start = self._allocated
        if start + n > self._cap:
            self._grow(start + n)
        self._allocated = start + n
        return start

    @property
    def capacity(self) -> int:
        return self._cap

    @property
    def allocated(self) -> int:
        """Slots handed out, including reserved-but-unfilled ones."""
        return self._allocated

    def __len__(self) -> int:
        """Initialised (live) nodes across all trees."""
        return self.node_count

    # -- node construction --------------------------------------------------

    def _init_node(
        self, idx: int, parent: int, move: int, state: GameState, t: int
    ) -> None:
        """The Python expansion body: describe ``state`` in slot
        ``idx``, shuffling its legal moves on tree ``t``'s generator.
        The compiled kernels replicate exactly this, row by row."""
        # Slots arrive virgin (fresh allocations and compact() both
        # leave defaults in place), so default-valued fields -- visits,
        # wins, vloss, child_start, child_count, terminal, winner --
        # are only written when they differ from the default.
        game = self.game
        self.parent[idx] = parent
        self.move[idx] = move
        tm = game.to_move(state)
        self.to_move[idx] = tm
        self.mover[idx] = self.to_move[parent] if parent >= 0 else -tm
        self.plane1[idx], self.plane2[idx] = game.zobrist_planes(state)
        mask = game.legal_mask(state)
        legal = list(bits_of(mask))
        if not legal:
            self.terminal[idx] = True
            self.winner[idx] = game.winner(state)
        rng = self._shuffler
        rng.setstate(self.rng_state.item(t))
        rng.shuffle(legal)
        self.rng_state[t] = rng.getstate()
        n = len(legal)
        self.untried_order[idx, :n] = legal
        self.n_legal[idx] = n
        self.untried_count[idx] = n
        for w in range(self.mask_words):
            self.untried_mask[idx, w] = mask & _U64_MASK
            mask >>= 64

    def _init_roots(self, state: GameState) -> None:
        """:meth:`_init_node` of every tree's root -- slots ``0 .. n -
        1`` -- with ``state``: the position described once, then each
        tree's own shuffle of its moves, in tree order."""
        game = self.game
        mask = game.legal_mask(state)
        legal = list(bits_of(mask))
        if not legal:
            raise ValueError("cannot search a terminal position")
        n, k = self.n_trees, len(legal)
        tm = game.to_move(state)
        self.to_move[:n] = tm
        self.mover[:n] = -tm
        self.plane1[:n], self.plane2[:n] = game.zobrist_planes(state)
        self.n_legal[:n] = k
        self.untried_count[:n] = k
        for w in range(self.mask_words):
            self.untried_mask[:n, w] = (mask >> (64 * w)) & _U64_MASK
        rng = self._shuffler
        for t in range(n):
            order = legal[:]
            rng.setstate(self.rng_state.item(t))
            rng.shuffle(order)
            self.rng_state[t] = rng.getstate()
            self.untried_order[t, :k] = order

    def _expand(self, node: int, t: int, child_depth: int) -> int:
        """Pop one untried move of ``node`` and create its child."""
        if self.child_start[node] < 0:
            self.child_start[node] = self._alloc_span(
                int(self.n_legal[node])
            )
        child = int(self.child_start[node]) + int(self.child_count[node])
        left = self.untried_count.item(node) - 1
        mv = self.untried_order.item(node, left)
        # An illegal move raises here, before anything is stored.
        state = self.game.apply(self.state_of(node), mv)
        self.untried_count[node] = left
        word, bit = divmod(mv, 64)
        self.untried_mask[node, word] = np.uint64(
            int(self.untried_mask[node, word]) & ~(1 << bit)
        )
        self.child_count[node] += 1
        self._init_node(child, node, mv, state, t)
        self.tree_node_count[t] += 1
        if child_depth > self.tree_max_depth[t]:
            self.tree_max_depth[t] = child_depth
        return child

    # -- selection + expansion ---------------------------------------------

    def select_expand(self, t: int = 0) -> tuple[int, int]:
        """Single-tree descent; mirrors ``SearchTree.select_expand``."""
        cols = self._compiled()
        if cols is not None:
            cols.trees[0] = t
            need = self._select_expand_compiled(cols, 1)
            if need:
                self._grow(need)
                return self.select_expand(t)
            return cols.leaves.item(0), cols.depths.item(0)
        node, depth = self._descend(t)
        if self.terminal[node]:
            return node, depth
        return self._expand(node, t, depth + 1), depth + 1

    def select_round(
        self, indices: "np.ndarray | list[int] | None" = None
    ) -> tuple[list[int], list[int], list[GameState], list[bool]]:
        """One lockstep round over several distinct trees: descend each
        to a terminal node or one with untried moves and expand one
        child there (exactly like the scalar walk).

        Returns ``(refs, depths, states, terminal)``, four plain lists
        aligned with ``indices`` (all trees when ``None``): each tree's
        leaf, its depth, its position (what ``state_of`` gives) and
        whether it is terminal.  A repeated or out-of-range index is a
        ``ValueError`` and changes nothing.  Child spans are reserved
        in *lockstep order* -- expansion depth ascending, then position
        in ``indices`` -- under either body, so node ids depend on
        neither.
        """
        cols = self._compiled()
        if cols is None:
            return self._select_round_python(indices)
        k = self._select_round_compiled(cols, indices)
        return (
            cols.leaves[:k].tolist(),
            cols.depths[:k].tolist(),
            _leaf_states(
                self.game,
                cols.leaf_plane1[:k],
                cols.leaf_plane2[:k],
                cols.leaf_to_move[:k],
            ),
            cols.leaf_terminal[:k].tolist(),
        )

    def select_loop(self, loop: RootLoop) -> int:
        """A ``root:N`` or ``sequential`` session's select loop in one
        compiled call (``root_loop`` in ``playout.c``): the loop's
        pending rows credited the answers :meth:`RootLoop.answer` pointed
        them at, and their trees' clocks charged; then sub-rounds of
        :meth:`select_round` over the trees ``loop``'s clocks and counts
        leave budget, each terminal leaf credited its winner and its
        tree's clock charged there, until one selects a leaf that needs
        a playout -- or, ``loop.once`` set, after a delivery or one
        sub-round.  The playout rows are the loop's own, ``loop.rows`` of
        them; ``loop.sub_rounds`` / ``loop.iterations`` count on.
        Returns 0; or :data:`~repro.compiled.BAD_PLIES` when a ply count
        lies outside the loop's table, nothing written.  Compiled arenas
        only (:func:`compiled_arena`)."""
        cols = self._compiled()
        while True:
            cols.allocated = self._allocated
            rc = select_expand_compiled(cols, 0, loop)
            self._allocated = cols.allocated
            if rc <= 0:
                break
            self._grow(rc)
        if -(2**62) < rc < 0:
            self._rejected(~loop.leaves.item(-3 - rc))
        return rc

    def select_expand_all(
        self, indices: "np.ndarray | list[int] | None" = None
    ) -> tuple[np.ndarray, np.ndarray]:
        """The ``(leaves, depths)`` of :meth:`select_round`, as int64
        arrays -- the same round, for a caller that reads the leaves'
        columns itself."""
        cols = self._compiled()
        if cols is None:
            leaves, depths, _, _ = self._select_round_python(indices)
            return (
                np.array(leaves, dtype=np.int64),
                np.array(depths, dtype=np.int64),
            )
        k = self._select_round_compiled(cols, indices)
        return cols.leaves[:k].copy(), cols.depths[:k].copy()

    def _select_round_python(self, indices):
        """The Python body of :meth:`select_round`."""
        if indices is None:
            trees = list(range(self.n_trees))
        else:
            # Checked before anything is written: a tree walked twice
            # in one round overruns its reserved span.
            trees = distinct_trees(indices, self.n_trees)
        stops = [self._descend(t) for t in trees]
        leaves = [node for node, _ in stops]
        depths = [depth for _, depth in stops]
        for i in sorted(range(len(stops)), key=depths.__getitem__):
            node, depth = stops[i]
            if not self.terminal[node]:
                leaves[i] = self._expand(node, trees[i], depth + 1)
                depths[i] = depth + 1
        return (
            leaves,
            depths,
            [self.state_of(leaf) for leaf in leaves],
            [self.terminal_of(leaf) for leaf in leaves],
        )

    def _select_round_compiled(self, cols: ArenaColumns, indices) -> int:
        """The compiled round over ``indices``: their number, the
        answers in the per-call rows of ``cols`` (which a growth keeps
        bound)."""
        if indices is None:
            k = self.n_trees
            cols.trees[:] = np.arange(k)
        else:
            k = len(indices)
            if k > self.n_trees:  # more rows than trees: one repeats
                raise distinct_trees_error(indices, self.n_trees)
            cols.trees[:k] = indices
        while need := self._select_expand_compiled(cols, k):
            self._grow(need)
        return k

    def _select_expand_compiled(self, cols: ArenaColumns, k: int) -> int:
        """The compiled round over ``cols.trees[:k]``.  Returns 0 with
        the answers in ``cols.leaves`` / ``cols.depths``, or the
        capacity the round needs -- nothing has changed then; grow and
        ask again."""
        cols.allocated = self._allocated
        rc = select_expand_compiled(cols, k)
        self._allocated = cols.allocated
        if rc > 0:
            return rc
        if rc:
            self._rejected(~cols.leaves.item(-3 - rc))
        return 0

    def _rejected(self, node: int) -> None:
        """Raise what the select kernel's refusal of ``node``'s next
        move is: the Python body's error, worded by the game."""
        mv = self.untried_order.item(node, self.untried_count[node] - 1)
        self.game.apply(self.state_of(node), mv)
        raise ValueError(
            f"{self.game.name} kernel rejected move {mv} at node {node}"
        )

    def _descend(self, t: int) -> tuple[int, int]:
        """Walk tree ``t`` from its root to a terminal node or one with
        untried moves; read-only.  Returns ``(node, depth)``."""
        node = int(self.roots[t])
        depth = 0
        while not self.terminal[node] and self.untried_count[node] <= 0:
            node = self._best_child(node)
            depth += 1
        return node, depth

    def _best_child(self, node: int) -> int:
        """UCB1 argmax over ``node``'s child span: the first
        unvisited child if there is one, else the first maximum of the
        score -- ``SearchTree.best_child`` on columns.  ``best_child``
        in ``playout.c`` repeats it operation for operation."""
        start = self.child_start.item(node)
        span = slice(start, start + self.child_count.item(node))
        total = self.visits.item(node) + self.vloss.item(node)
        log_total = math.log(total) if total > 1.0 else 0.0
        c = self.ucb_c
        wuct = self.parallel_mode == "wuct"
        best = best_score = None
        for child, (completed, in_flight, wins) in enumerate(
            zip(
                self.visits[span].tolist(),
                self.vloss[span].tolist(),
                self.wins[span].tolist(),
            ),
            start,
        ):
            n_i = completed + in_flight
            if n_i <= 0.0:
                return child
            if wuct:
                # WU-UCT: mean over completed visits only; the in-flight
                # counts widen just the exploration denominator (n_i).
                p = wins / completed if completed > 0.0 else 0.5
            else:
                p = wins / n_i
            score = p + c * math.sqrt(log_total / n_i)
            if best is None or score > best_score:
                best, best_score = child, score
        return best

    # -- statistics updates -------------------------------------------------

    def backprop(
        self,
        leaf: int,
        simulations: int,
        wins_black: float,
        wins_white: float,
        draws: float = 0.0,
    ) -> None:
        """Scalar path update; mirrors ``SearchTree.backprop``."""
        node = int(leaf)
        while node >= 0:
            self.visits[node] += simulations
            side = wins_black if self.mover[node] == 1 else wins_white
            self.wins[node] += side + 0.5 * draws
            node = int(self.parent[node])

    def backprop_winner(
        self, leaf: int, winner: int, simulations: int = 1
    ) -> None:
        self.backprop(
            leaf,
            simulations,
            simulations if winner == 1 else 0,
            simulations if winner == -1 else 0,
            simulations if winner == 0 else 0,
        )

    def _one_leaf_per_tree(self, leaves) -> int:
        """``len(leaves)``, which the per-call rows must hold."""
        k = len(leaves)
        if k > self.n_trees:
            raise ValueError(
                f"{k} leaves for {self.n_trees} trees: one leaf per tree"
            )
        return k

    def backprop_many(
        self,
        leaves: np.ndarray,
        simulations: float,
        wins_black: np.ndarray,
        wins_white: np.ndarray,
        draws: np.ndarray,
    ) -> None:
        """:meth:`backprop` of one leaf per tree (negative = none), in
        one compiled call where there is a kernel.

        Requires at most one leaf per tree: paths in distinct trees
        are disjoint.
        """
        k = self._one_leaf_per_tree(leaves)
        cols = self._compiled()
        if cols is None:
            for leaf, *outcome in zip(
                np.asarray(leaves).tolist(),
                np.asarray(wins_black).tolist(),
                np.asarray(wins_white).tolist(),
                np.asarray(draws).tolist(),
            ):
                self.backprop(leaf, simulations, *outcome)
            return
        cols.leaves[:k] = leaves
        cols.stats[0, :k] = wins_black
        cols.stats[1, :k] = wins_white
        cols.stats[2, :k] = draws
        cols.allocated = self._allocated
        backprop_compiled(cols, k, simulations)

    def backprop_winners(self, leaves, winners) -> None:
        """One playout result per tree: ``winners[j]`` at
        ``leaves[j]`` (distinct trees, as many winners as leaves).  A
        winner that is none of 1 / -1 / 0 -- a corrupted answer --
        counts a visit and no win."""
        k = self._one_leaf_per_tree(leaves)
        if len(winners) != k:
            raise ValueError(f"{len(winners)} winners for {k} leaves")
        cols = self._compiled()
        if cols is None:
            for leaf, winner in zip(leaves, winners):
                self.backprop_winner(leaf, winner)
            return
        cols.leaves[:k] = leaves
        cols.winners[:k] = winners
        cols.allocated = self._allocated
        backprop_winners_compiled(cols, k)

    def backprop_block(self, leaves, simulations, winners_2d) -> None:
        """Per-tree playout tallies: row ``b`` of ``winners_2d`` holds
        the outcomes of the ``simulations`` playouts from
        ``leaves[b]``."""
        winners = np.asarray(winners_2d)
        self.backprop_many(
            leaves,
            simulations,
            (winners == 1).sum(axis=1),
            (winners == -1).sum(axis=1),
            (winners == 0).sum(axis=1),
        )

    def apply_virtual_loss(self, leaf: int, amount: float = 1.0) -> None:
        self._vloss_active = True
        node = int(leaf)
        while node >= 0:
            self.vloss[node] += amount
            node = int(self.parent[node])

    def revert_virtual_loss(self, leaf: int, amount: float = 1.0) -> None:
        self.apply_virtual_loss(leaf, -amount)

    # -- ref accessors ------------------------------------------------------

    def state_of(self, ref: int) -> GameState:
        i = int(ref)
        return self.game.state_from_planes(
            self.plane1.item(i), self.plane2.item(i), self.to_move.item(i)
        )

    def positions_of(self, refs) -> Positions:
        """The positions of ``refs`` as the input of one kernel launch:
        :meth:`state_of` of each, held as three gathered columns -- no
        state is built unless somebody iterates.  A ref that is not an
        initialised slot is a ``ValueError``."""
        refs = np.asarray(refs, dtype=np.int64)
        # One bound check for both ends: a negative ref (which NumPy
        # would wrap to the arena's tail) reads as a huge unsigned one.
        if refs.ndim != 1 or (
            refs.size and refs.view(np.uint64).max() >= self._allocated
        ):
            raise ValueError(
                f"refs {refs.tolist()} are not all slots of the "
                f"{self._allocated} allocated"
            )
        to_move = self.to_move[refs]
        if not to_move.all():
            raise ValueError(
                f"refs {refs[to_move == 0].tolist()} are reserved slots "
                f"that hold no position yet"
            )
        return Positions.from_columns(
            self.game, self.plane1[refs], self.plane2[refs], to_move
        )

    def terminal_of(self, ref: int) -> bool:
        return bool(self.terminal[int(ref)])

    def winner_of(self, ref: int) -> int:
        return int(self.winner[int(ref)])

    # -- reporting ----------------------------------------------------------

    def root_stats(self, t: int = 0) -> dict[int, tuple[float, float]]:
        root = int(self.roots[t])
        start = int(self.child_start[root])
        if start < 0:
            return {}
        count = int(self.child_count[root])
        return {
            int(self.move[c]): (float(self.visits[c]), float(self.wins[c]))
            for c in range(start, start + count)
        }

    def root_stats_of(
        self, indices=None
    ) -> list[dict[int, tuple[float, float]]]:
        """:meth:`root_stats` of the given trees (all when ``None``),
        in the order given -- what the root vote is taken over."""
        which = range(self.n_trees) if indices is None else indices
        return [self.root_stats(t) for t in which]

    def poison_root(self, t: int, bonus: float) -> bool:
        """Write ``bonus`` phantom wins straight into tree ``t``'s
        most-visited root child, *bypassing backprop* -- the
        ``poison=tree:K`` corruption fault.  Only a direct write like
        this can break the win-bound invariant :meth:`validate`
        checks; anything routed through backprop stays
        self-consistent.  Returns False for a tree the arena does not
        hold and before the root has children."""
        if t >= self.n_trees:
            return False
        root = int(self.roots[t])
        start = int(self.child_start[root])
        if start < 0:
            return False
        count = int(self.child_count[root])
        victim = max(
            range(start, start + count),
            key=lambda c: (
                float(self.visits[c]),
                float(self.wins[c]),
                -int(self.move[c]),
            ),
        )
        self.wins[victim] += bonus
        return True

    def audit_tree(self, t: int = 0, legal_moves=None) -> str | None:
        """Audit tree ``t``: the full structural validation (visit
        conservation, win bounds, span bookkeeping) restricted to that
        tree, plus the backend-neutral root-stats checks.  Returns a
        violation description, or None."""
        try:
            self.validate(trees=(t,))
        except ArenaInvariantError as exc:
            return str(exc)
        return audit_root_stats(self.root_stats(t), legal_moves)

    @property
    def node_count(self) -> int:
        """Live nodes across all trees."""
        return int(self.tree_node_count.sum())

    @property
    def max_depth(self) -> int:
        """Deepest expanded path of any tree."""
        return int(self.tree_max_depth.max())

    def per_tree_nodes(self) -> list[int]:
        return self.tree_node_count.tolist()

    def per_tree_depth(self) -> list[int]:
        return self.tree_max_depth.tolist()

    def ref_token(self, ref: int, t: int = 0) -> int:
        """Refs are stable slot numbers: the token is the ref."""
        return int(ref)

    def ref_from_token(self, token: int, t: int = 0) -> int:
        return int(token)

    # -- checkpointing ------------------------------------------------------

    #: Columns snapshots copy verbatim (``[:allocated]``) into
    #: ``arrays``; the rest travel as Python values -- planes as the
    #: game's state tuples, untried orders as lists.
    _SNAPSHOT_ARRAYS = tuple(
        name
        for name, *_ in _COLUMNS
        if name not in ("plane1", "plane2", "untried_order")
    )

    def snapshot(self) -> dict:
        """A picklable copy of all live arena state.

        Every ``_SNAPSHOT_ARRAYS`` column is one
        ``ndarray[:allocated].copy()``.  Positions, the untried part of
        each order row and the per-tree RNG words are rendered as the
        Python values the payload has always carried (state tuples,
        lists, ints; ``None`` for a reserved-but-unfilled slot), so
        the checkpoint format does not depend on the column layout.
        """
        n = self._allocated
        live = self.to_move[:n].tolist()
        counts = self.untried_count[:n]
        widest = int(counts.max(initial=0))
        make_state = self.game.state_from_planes
        return {
            "kind": "arena",
            "ucb_c": self.ucb_c,
            "selection_rule": "ucb1",
            "parallel_mode": self.parallel_mode,
            "n_trees": self.n_trees,
            "mask_words": self.mask_words,
            "allocated": n,
            "rng_states": self.rng_state.tolist(),
            "vloss_active": self._vloss_active,
            "roots": self.roots.copy(),
            "tree_node_count": self.tree_node_count.copy(),
            "tree_max_depth": self.tree_max_depth.copy(),
            "arrays": {
                name: getattr(self, name)[:n].copy()
                for name in self._SNAPSHOT_ARRAYS
            },
            "states": [
                make_state(p1, p2, tm) if tm else None
                for p1, p2, tm in zip(
                    self.plane1[:n].tolist(), self.plane2[:n].tolist(), live
                )
            ],
            "untried_order": [
                row[:count] if tm else None
                for row, count, tm in zip(
                    self.untried_order[:n, :widest].tolist(),
                    counts.tolist(),
                    live,
                )
            ],
        }

    @classmethod
    def from_snapshot(cls, game: Game, snap: dict) -> "TreeArena":
        """Rebuild an arena from :meth:`snapshot`; consumes no RNG
        draws and generates no moves."""
        check_selection_rule(snap)
        arena = object.__new__(cls)
        arena._attach(game)
        arena.ucb_c = snap["ucb_c"]
        arena.parallel_mode = snap.get("parallel_mode", "vloss")
        arena.n_trees = snap["n_trees"]
        arena.rng_state = np.array(snap["rng_states"], dtype=np.uint64)
        arena._vloss_active = snap["vloss_active"]
        n = snap["allocated"]
        arena._make_arrays(max(n, 2))
        arena._allocated = n
        for name in cls._SNAPSHOT_ARRAYS:
            getattr(arena, name)[:n] = snap["arrays"][name]
        for i, state in enumerate(snap["states"]):
            if state is not None:
                arena.plane1[i], arena.plane2[i] = game.zobrist_planes(state)
                order = snap["untried_order"][i]
                arena.untried_order[i, : len(order)] = order
        arena.roots = np.asarray(snap["roots"], dtype=np.int64).copy()
        arena.tree_node_count = np.asarray(
            snap["tree_node_count"], dtype=np.int64
        ).copy()
        arena.tree_max_depth = np.asarray(
            snap["tree_max_depth"], dtype=np.int64
        ).copy()
        return arena

    def validate(self, trees=None) -> None:
        """Audit the arena's structural invariants; raises
        ``ArenaInvariantError`` on the first violation.

        Checks, per live node: the child span is inside the
        allocation, parent links point back into the span, every
        child's mover is its parent's player-to-move, the untried
        bookkeeping agrees three ways (count, shuffled order list,
        bitmask popcount and bit positions), filled children plus
        untried moves equal the branching factor, statistics are
        monotone (``wins - 0.5*draws <= visits``; parent visits at
        least the sum of child visits), and per-tree node counts match
        a BFS of each root.  Called after every restore and by the
        differential tests.

        ``trees`` restricts the audit to the given tree indices --
        how the integrity layer amortises a full sweep to one tree per
        audit point; None (the default) validates every tree.
        """
        n = self._allocated
        for t in range(self.n_trees) if trees is None else trees:
            root = int(self.roots[t])
            if not 0 <= root < n:
                raise ArenaInvariantError(
                    f"tree {t}: root {root} outside allocation {n}"
                )
            if self.parent[root] != -1:
                raise ArenaInvariantError(
                    f"tree {t}: root {root} has a parent"
                )
            reached = 0
            queue = [root]
            while queue:
                node = queue.pop()
                reached += 1
                self._validate_node(node, n)
                start = int(self.child_start[node])
                if start >= 0:
                    queue.extend(
                        start + k
                        for k in range(int(self.child_count[node]))
                    )
            if reached != int(self.tree_node_count[t]):
                raise ArenaInvariantError(
                    f"tree {t}: BFS reaches {reached} nodes, "
                    f"tree_node_count says {int(self.tree_node_count[t])}"
                )

    def _validate_node(self, node: int, allocated: int) -> None:
        n_legal = int(self.n_legal[node])
        untried = int(self.untried_count[node])
        filled = int(self.child_count[node])
        start = int(self.child_start[node])
        if filled + untried != n_legal:
            raise ArenaInvariantError(
                f"node {node}: children({filled}) + untried({untried}) "
                f"!= n_legal({n_legal})"
            )
        order = self.untried_order[node, : max(untried, 0)].tolist()
        order_set = set(order)
        if len(order_set) != untried:
            raise ArenaInvariantError(
                f"node {node}: untried_order {order!r} disagrees with "
                f"untried_count {untried}"
            )
        mask_bits = set()
        for w in range(self.mask_words):
            word = int(self.untried_mask[node, w])
            while word:
                low = word & -word
                mask_bits.add(64 * w + low.bit_length() - 1)
                word ^= low
        if mask_bits != order_set:
            raise ArenaInvariantError(
                f"node {node}: untried bitmask {sorted(mask_bits)} != "
                f"untried order {sorted(order_set)}"
            )
        if start < 0:
            if filled:
                raise ArenaInvariantError(
                    f"node {node}: {filled} children but no child span"
                )
        else:
            if start + n_legal > allocated:
                raise ArenaInvariantError(
                    f"node {node}: span [{start}, {start + n_legal}) "
                    f"overruns allocation {allocated}"
                )
            child_visits = 0.0
            for k in range(filled):
                child = start + k
                if int(self.parent[child]) != node:
                    raise ArenaInvariantError(
                        f"node {child}: parent link "
                        f"{int(self.parent[child])} != {node}"
                    )
                if int(self.mover[child]) != int(self.to_move[node]):
                    raise ArenaInvariantError(
                        f"node {child}: mover != parent's to_move"
                    )
                child_visits += float(self.visits[child])
            if float(self.visits[node]) + 1e-9 < child_visits:
                raise ArenaInvariantError(
                    f"node {node}: visits {float(self.visits[node])} < "
                    f"sum of child visits {child_visits}"
                )
        if float(self.wins[node]) > float(self.visits[node]) + 1e-9:
            raise ArenaInvariantError(
                f"node {node}: wins {float(self.wins[node])} exceed "
                f"visits {float(self.visits[node])}"
            )

    # -- maintenance --------------------------------------------------------

    def compact(self) -> None:
        """Rewrite the arena in breadth-first order, trimming slack.

        Child spans keep their reserved ``n_legal`` width (unfilled
        slots are future children), but the capacity tail beyond the
        last allocation is dropped and nodes land in BFS order, which
        puts a node's children next to its siblings' for the descent.  Node
        ids change: outstanding refs from before the call are invalid.
        Logical structure and statistics are untouched -- searching on
        after a compact yields bit-identical results.
        """
        mapping = np.full(self._allocated, -1, dtype=np.int64)
        new_span_start = np.full(self._allocated, -1, dtype=np.int64)
        new_alloc = 0
        queue: list[int] = []
        for t in range(self.n_trees):
            root = int(self.roots[t])
            mapping[root] = new_alloc
            new_alloc += 1
            queue.append(root)
        head = 0
        while head < len(queue):
            node = queue[head]
            head += 1
            start = int(self.child_start[node])
            if start < 0:
                continue
            new_span_start[node] = new_alloc
            new_alloc += int(self.n_legal[node])
            for k in range(int(self.child_count[node])):
                child = start + k
                mapping[child] = new_span_start[node] + k
                queue.append(child)

        old = {name: getattr(self, name) for name, *_ in self._COLUMNS}
        olds = np.nonzero(mapping >= 0)[0]
        news = mapping[olds]
        self._make_arrays(new_alloc)
        self._allocated = new_alloc
        for name, column in old.items():
            if name not in ("parent", "child_start"):  # links: remapped
                getattr(self, name)[news] = column[olds]
        parents = old["parent"][olds]
        self.parent[news] = np.where(parents >= 0, mapping[parents], -1)
        self.child_start[news] = new_span_start[olds]
        self.roots = mapping[self.roots]


#: The rows of the many-arena calls, shared by every caller (one
#: thread drives the kernels).
_TENANT_ROWS: "TenantRows | None" = None

#: Released arenas by ``(game name, n_trees)``, all columns at their
#: defaults, waiting for :meth:`TreeArena.open` (one thread drives the
#: sessions).
_FREE_ARENAS: "dict[tuple[str, int], list[TreeArena]]" = {}

#: Fewest arenas :func:`select_round_many` walks in one call: below it
#: the call's fixed cost outweighs the per-arena calls it replaces
#: (measured on one-tree TicTacToe arenas).
MANY_SELECT_MIN = 3


def _tenant_rows(tenants: int, rows: int) -> TenantRows:
    global _TENANT_ROWS
    if _TENANT_ROWS is None:
        _TENANT_ROWS = TenantRows()
    _TENANT_ROWS.reserve(tenants, rows)
    return _TENANT_ROWS


def compiled_arena(store) -> bool:
    """Is ``store`` an arena on the compiled bodies -- one the
    many-arena calls take?"""
    return isinstance(store, TreeArena) and store._compiled() is not None


def _leaf_states(game: Game, plane1, plane2, to_move) -> list[GameState]:
    """The positions a select kernel handed back as columns, as
    states."""
    return list(
        map(
            game.state_from_planes,
            plane1.tolist(),
            plane2.tolist(),
            to_move.tolist(),
        )
    )


def select_round_many(stores, indices) -> list[tuple[list, list, list, list]]:
    """:meth:`TreeArena.select_round` of every ``stores[j]`` over
    ``indices[j]``, their answers, in order.  The stores are distinct and
    share no node, so each tree changes exactly as its own round would
    change it.  Arenas of one game on the compiled bodies go in one
    kernel call (``*_select_expand_many``); every other store -- a
    pointer forest, an arena on its Python bodies, an arena of a game
    with fewer than :data:`MANY_SELECT_MIN` -- runs its own round."""
    answers: list = [None] * len(stores)
    groups: dict[str, list[int]] = {}
    for j, store in enumerate(stores):
        if compiled_arena(store):
            groups.setdefault(store.game.name, []).append(j)
        else:
            answers[j] = store.select_round(indices[j])
    for js in groups.values():
        if len(js) < MANY_SELECT_MIN:
            for j in js:
                answers[j] = stores[j].select_round(indices[j])
            continue
        group = _select_group(
            [stores[j] for j in js], [indices[j] for j in js]
        )
        for j, answer in zip(js, group):
            answers[j] = answer
    return answers


def _select_many(
    arenas, rows: TenantRows, loops=None, answers=None, mend=None
) -> None:
    """One ``*_select_expand_many`` over the ``len(arenas)`` tenants of
    ``rows`` -- compiled arenas of one game, tenant ``j`` running
    ``loops[j]`` when there are loops -- calling again from the
    tenant that stopped: an arena that ran out of room grown (its loop,
    if it has one, resumes from its own clocks), a loop whose answers
    the kernel refused (:data:`~repro.compiled.BAD_PLIES`) handed to
    ``mend(j)``, which delivers them; either tenant runs on with no
    answers to deliver."""
    n = len(arenas)
    kernel = arenas[0]._compiled().select_expand_many
    first = 0
    while True:
        columns = [arena._compiled() for arena in arenas[first:]]
        for arena, cols in zip(arenas[first:], columns):
            cols.allocated = arena._allocated
        rows.arenas[first:n] = [cols._at for cols in columns]
        rc, at = select_expand_many_compiled(kernel, rows, first, n, answers)
        # Tenants the call did not reach left their cursor as it was.
        for arena, cols in zip(arenas[first:], columns):
            arena._allocated = cols.allocated
        if rc == 0:
            return
        if rc > 0:
            arenas[at]._grow(rc)
        elif rc == BAD_PLIES and mend is not None:
            mend(at)
        else:
            if rc == -(2**63):
                lo, hi = rows.bounds[at], rows.bounds[at + 1]
                raise distinct_trees_error(
                    rows.trees[lo:hi], arenas[at].n_trees
                )
            if rc <= -3:
                leaves = (
                    rows.leaves[rows.bounds[at]:]
                    if loops is None
                    else loops[at].leaves
                )
                arenas[at]._rejected(~leaves.item(-3 - rc))
            raise ValueError(
                "arena row widths do not fit the game's moves"
                if rc == -1
                else "an arena's allocation cursor lies outside it"
            )
        rows.answer_at[at] = -1
        first = at


def _select_group(arenas: "list[TreeArena]", indices) -> list:
    """One ``*_select_expand_many`` round over compiled arenas of one
    game (:func:`_select_many`)."""
    n = len(arenas)
    counts = [len(trees) for trees in indices]
    k = sum(counts)
    rows = _tenant_rows(n, k)
    rows.trees[:k] = list(chain.from_iterable(indices))
    rows.bounds[0] = 0
    rows.bounds[1 : n + 1] = bounds = list(accumulate(counts))
    rows.loops[:n] = 0
    _select_many(arenas, rows)
    leaves, depths, terminal = (
        column[:k].tolist()
        for column in (rows.leaves, rows.depths, rows.terminal)
    )
    states = _leaf_states(
        arenas[0].game, rows.plane1[:k], rows.plane2[:k], rows.to_move[:k]
    )
    return [
        (leaves[lo:hi], depths[lo:hi], states[lo:hi], terminal[lo:hi])
        for lo, hi in zip([0, *bounds], bounds)
    ]


def select_loops(arenas, loops, answers=None, lanes=None, mend=None) -> None:
    """:meth:`TreeArena.select_loop` of every ``arenas[j]`` with
    ``loops[j]``, in one ``*_select_expand_many`` call: compiled arenas
    of one game, distinct.  With ``answers`` -- ``(winners float64,
    plies int64)`` columns -- loop ``j``'s pending rows are answered by
    rows ``lanes[j]`` on of them, ``lanes[j] < 0`` meaning none; a loop
    whose answers hold a ply count outside its table is handed to
    ``mend(j)``, which must deliver them, and run on."""
    n = len(arenas)
    rows = _tenant_rows(n, 0)
    rows.bounds[: n + 1] = 0
    rows.loops[:n] = [loop._at for loop in loops]
    if answers is not None:
        rows.answer_at[:n] = lanes
    _select_many(arenas, rows, loops, answers, mend)


def launch_positions(game: Game, parts, lanes: int) -> Positions:
    """The columns of one launch of ``lanes`` positions, one per
    playout request, from ``parts`` -- ``(lo, requests)`` in lane order,
    ``requests`` taking lanes ``lo`` on: a :class:`RootLoop`'s pending
    rows are gathered in one kernel call over every loop, the other
    requests (states) written in one pass.  No state is built."""
    loops = [(lo, reqs) for lo, reqs in parts if isinstance(reqs, RootLoop)]
    n = len(loops)
    rows = _tenant_rows(n, 0)
    rows.loops[:n] = [loop._at for _, loop in loops]
    rows.answer_at[:n] = [lo for lo, _ in loops]
    plane1, plane2, to_move = loop_positions(rows, n, lanes)
    if n < len(parts):
        lanes_of, states = [], []
        for lo, reqs in parts:
            if not isinstance(reqs, RootLoop):
                lanes_of.extend(range(lo, lo + len(reqs)))
                states.extend(reqs)
        if states:
            # A compiled game's state *is* its (plane1, plane2, to_move).
            plane1[lanes_of], plane2[lanes_of], to_move[lanes_of] = zip(
                *states
            )
    return Positions.from_columns(game, plane1, plane2, to_move)


def backprop_winners_many(stores, leaves, winners) -> None:
    """``winners[j][i]`` credited at ``leaves[j][i]`` of every
    ``stores[j]``: a visit along each path and the winner's win -- what
    ``backprop_winner`` adds, row by row.  Any number of rows per store,
    several on one tree too: credits only add.  The arenas on the
    compiled bodies go in one kernel call
    (``repro_backprop_winners_many``); every other store credits its
    rows one by one."""
    arenas = []
    for store, rows, outcomes in zip(stores, leaves, winners):
        if compiled_arena(store):
            arenas.append((store, rows, outcomes))
        else:
            for leaf, winner in zip(rows, outcomes):
                store.backprop_winner(leaf, winner)
    arenas, leaves, winners = (
        [row[i] for row in arenas] for i in range(3)
    )
    n = len(arenas)
    counts = [len(rows) for rows in leaves]
    k = sum(counts)
    if not k:
        return
    rows = _tenant_rows(n, k)
    rows.leaves[:k] = list(chain.from_iterable(leaves))
    rows.winners[:k] = list(chain.from_iterable(winners))
    rows.bounds[0] = 0
    rows.bounds[1 : n + 1] = list(accumulate(counts))
    columns = [arena._compiled() for arena in arenas]
    for arena, cols in zip(arenas, columns):
        cols.allocated = arena._allocated
    rows.arenas[:n] = [cols._at for cols in columns]
    backprop_winners_many_compiled(rows, n)
