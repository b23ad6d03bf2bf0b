"""Array-backed MCTS tree arena with vectorised selection.

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
  batched backpropagation can use plain fancy indexing.
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
same UCB expression evaluation order, first-max argmax tie-breaking,
and ``math.log`` (not ``np.log``, which differs in the last ulp on
some inputs) for the per-node visit logarithm.  Same seeds therefore
produce identical root statistics and chosen moves on both backends --
the differential test suite enforces this for every engine kind.

The payoff is :meth:`select_expand_all`: one lockstep descent of all
``B`` trees per iteration, scoring every active tree's child span in a
handful of vectorised numpy passes instead of ``B`` independent Python
walks, then expanding all of them in one compiled call
(``repro/compiled/playout.c``, "Batch node expansion") when the game
has a kernel and a C toolchain exists -- same draws, same order; the
Python body (:meth:`TreeArena._expand` + ``_init_node``) otherwise.
"""

from __future__ import annotations

import math

import numpy as np

from repro.compiled import ArenaColumns, expand_compiled, expand_kernel
from repro.core.policy import (
    validate_parallel_mode,
    validate_selection_rule,
)
from repro.core.tree import aggregate_stat_dicts, majority_vote_stat_dicts
from repro.games.base import Game, GameState
from repro.rng import XorShift64Star
from repro.util.bitops import bits_of

_U64_MASK = (1 << 64) - 1


class ArenaInvariantError(RuntimeError):
    """Raised by :meth:`TreeArena.validate` on a corrupted arena."""


class TreeArena:
    """``n_trees`` MCTS trees in one struct-of-arrays node store."""

    def __init__(
        self,
        game: Game,
        root_state: GameState,
        rngs: "list[XorShift64Star]",
        ucb_c: float = 1.0,
        selection_rule: str = "ucb1",
        capacity: int | None = None,
        parallel_mode: str = "vloss",
    ) -> None:
        if ucb_c < 0:
            raise ValueError(f"ucb_c must be non-negative: {ucb_c}")
        validate_selection_rule(selection_rule)
        validate_parallel_mode(parallel_mode)
        if not rngs:
            raise ValueError("arena needs at least one tree RNG")
        self._attach(game)
        #: Each tree's xorshift64* word, adopted from ``rngs`` (the
        #: generator objects themselves are not advanced).
        self.rng_state = np.array(
            [rng.getstate() for rng in rngs], dtype=np.uint64
        )
        self.n_trees = len(rngs)
        self.ucb_c = ucb_c
        self.selection_rule = selection_rule
        self.parallel_mode = parallel_mode

        cap = capacity if capacity else max(256, 8 * self.n_trees)
        self._cap = 0
        self._allocated = 0
        #: ``_log_table[n] == math.log(n)`` for integer visit totals
        #: (the common case -- whole playout counts); grown on demand.
        self._log_table = np.zeros(2, dtype=np.float64)
        #: Any virtual loss outstanding?  While False, ``n_i`` and the
        #: totals reduce to plain visit reads (fewer vector ops).
        self._vloss_active = False
        self._make_arrays(cap)

        self.roots = np.empty(self.n_trees, dtype=np.int64)
        self.tree_node_count = np.ones(self.n_trees, dtype=np.int64)
        self.tree_max_depth = np.zeros(self.n_trees, dtype=np.int64)
        for t in range(self.n_trees):
            root = self._alloc_span(1)
            self._init_node(root, -1, -1, root_state, t)
            if self.terminal[root]:
                raise ValueError("cannot search a terminal position")
            self.roots[t] = root

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
        #: Column addresses for the compiled body, taken on first use.
        self._cols: ArenaColumns | None = None

    def _grow(self, min_cap: int) -> None:
        # Slots past ``_allocated`` are virgin: nothing to carry over.
        self._make_arrays(max(2 * self._cap, min_cap), self._allocated)

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
        return int(self.tree_node_count.sum())

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

    def _expand(self, node: int, t: int, child_depth: int) -> int:
        """Pop one untried move of ``node`` and create its child."""
        if self.child_start[node] < 0:
            self.child_start[node] = self._alloc_span(
                int(self.n_legal[node])
            )
        child = int(self.child_start[node]) + int(self.child_count[node])
        kernel = expand_kernel(self.game.name)
        if kernel is not None:
            row = [[node], [child], [t], [child_depth]]
            self._expand_compiled(kernel, np.array(row, dtype=np.int64))
            return child
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

    def _expand_many(
        self,
        nodes: np.ndarray,
        ts: np.ndarray,
        child_depths: np.ndarray,
    ) -> np.ndarray:
        """Batched :meth:`_expand` over *distinct* nodes of *distinct*
        trees, rows in the order the per-tree loop would visit them (so
        span allocation and RNG consumption are identical).

        One compiled call does the whole batch when the game has an
        expansion kernel and a toolchain exists -- same moves, same
        draws; otherwise the rows go through :meth:`_expand`.
        """
        kernel = expand_kernel(self.game.name)
        if kernel is None:
            rows = zip(nodes.tolist(), ts.tolist(), child_depths.tolist())
            return np.array(
                [self._expand(*row) for row in rows], dtype=np.int64
            )
        rows = np.empty((4, len(nodes)), dtype=np.int64)
        rows[0], rows[2], rows[3] = nodes, ts, child_depths
        starts = self.child_start[nodes]
        fresh = starts < 0
        if np.count_nonzero(fresh):
            # First expansion: reserve each node's span, in row order.
            sizes = self.n_legal[nodes[fresh]]
            ends = np.cumsum(sizes, dtype=np.int64)
            starts[fresh] = self._alloc_span(int(ends[-1])) + ends - sizes
            self.child_start[nodes[fresh]] = starts[fresh]
        np.add(starts, self.child_count[nodes], out=rows[1])
        self._expand_compiled(kernel, rows)
        return rows[1]

    def _expand_compiled(self, kernel, rows: np.ndarray) -> None:
        """The compiled expansion body: one kernel call pops, creates
        and links every ``(node, child slot, tree, depth)`` row."""
        if self._cols is None:
            self._cols = ArenaColumns.of(self)
        bad = expand_compiled(kernel, self._cols, rows)
        if bad:
            # Same error as the scalar path: let the game word it.
            node = int(rows[0, bad - 1])
            mv = self.untried_order.item(node, self.untried_count[node] - 1)
            self.game.apply(self.state_of(node), mv)
            raise ValueError(
                f"{self.game.name} kernel rejected move {mv} at node {node}"
            )

    # -- selection + expansion ---------------------------------------------

    def select_expand(self, t: int) -> tuple[int, int]:
        """Single-tree descent; mirrors ``SearchTree.select_expand``."""
        node = int(self.roots[t])
        depth = 0
        while True:
            if self.terminal[node]:
                return node, depth
            if self.untried_count[node] > 0:
                return self._expand(node, t, depth + 1), depth + 1
            node = self._best_child(node)
            depth += 1

    def select_expand_all(
        self, indices: "np.ndarray | list[int] | None" = None
    ) -> tuple[np.ndarray, np.ndarray]:
        """Lockstep descent of several trees at once.

        Returns ``(leaves, depths)`` aligned with ``indices`` (all
        trees when ``None``).  Per level, every still-descending tree's
        child span is scored in one vectorised pass and every tree
        that reached a node with untried moves expands one child
        (exactly like the scalar walk) in one :meth:`_expand_many`.
        """
        idx = (
            np.arange(self.n_trees, dtype=np.int64)
            if indices is None
            else np.asarray(indices, dtype=np.int64)
        )
        cur = self.roots[idx].copy()
        depths = np.zeros(len(idx), dtype=np.int64)
        leaves = np.full(len(idx), -1, dtype=np.int64)
        active = np.ones(len(idx), dtype=bool)
        while True:
            rows = np.nonzero(active)[0]
            if not len(rows):
                break
            nodes = cur[rows]
            # Trees parked on a terminal node stop here.
            term = self.terminal[nodes]
            if term.any():
                stop = rows[term]
                leaves[stop] = cur[stop]
                active[stop] = False
                rows = rows[~term]
                nodes = cur[rows]
                if not len(rows):
                    continue
            # Trees at a node with untried moves expand one child.
            expandable = self.untried_count[nodes] > 0
            if expandable.any():
                erows = rows[expandable]
                leaves[erows] = self._expand_many(
                    cur[erows], idx[erows], depths[erows] + 1
                )
                depths[erows] += 1
                active[erows] = False
                rows = rows[~expandable]
                nodes = cur[rows]
                if not len(rows):
                    continue
            # Everyone else descends one level, scored in one batch.
            cur[rows] = self._best_children(nodes)
            depths[rows] += 1
        return leaves, depths

    def _log_totals(self, totals: np.ndarray) -> np.ndarray:
        # math.log, not np.log: the vectorised log differs from libm's
        # in the last ulp for some inputs, which would break the
        # bit-for-bit backend equivalence the differential tests pin.
        # Integral totals (every whole-playout engine) go through a
        # lazily grown lookup table of math.log values instead of a
        # Python loop; math.log(float(n)) == table[n] exactly.
        as_int = totals.astype(np.int64)
        if np.array_equal(as_int, totals):
            hi = int(as_int.max(initial=0))
            table = self._log_table
            if hi >= len(table):
                old = len(table)
                table = np.resize(table, max(hi + 1, 2 * old))
                for n in range(old, len(table)):
                    table[n] = math.log(n)
                self._log_table = table
            out = table[as_int]
            out[totals <= 1.0] = 0.0
            return out
        log = math.log
        return np.fromiter(
            (log(tv) if tv > 1.0 else 0.0 for tv in totals.tolist()),
            dtype=np.float64,
            count=len(totals),
        )

    def _best_child(self, node: int) -> int:
        """Selection-rule argmax over ``node``'s child span."""
        start = int(self.child_start[node])
        span = slice(start, start + int(self.child_count[node]))
        n_i = self.visits[span] + self.vloss[span]
        unvisited = n_i <= 0.0
        if unvisited.any():
            return start + int(np.argmax(unvisited))
        total = self.visits[node] + self.vloss[node]
        log_total = math.log(total) if total > 1.0 else 0.0
        if self.parallel_mode == "wuct":
            # WU-UCT: mean over completed visits only; the in-flight
            # counts widen just the exploration denominator (n_i).
            completed = self.visits[span]
            safe_c = np.where(completed > 0.0, completed, 1.0)
            p = np.where(
                completed > 0.0, self.wins[span] / safe_c, 0.5
            )
        else:
            p = self.wins[span] / n_i
        c = self.ucb_c
        if self.selection_rule == "ucb1_tuned":
            variance = p * (1.0 - p) + np.sqrt(2.0 * log_total / n_i)
            width = np.minimum(0.25, variance)
            score = p + c * np.sqrt(log_total / n_i * width)
        else:
            score = p + c * np.sqrt(log_total / n_i)
        return start + int(np.argmax(score))

    def _best_children(self, nodes: np.ndarray) -> np.ndarray:
        """Vectorised ``_best_child`` over many nodes' child spans."""
        starts = self.child_start[nodes]
        counts = self.child_count[nodes].astype(np.int64)
        width = int(counts.max())
        cols = np.arange(width, dtype=np.int64)
        uniform = width == int(counts.min())
        if uniform:
            # Every span has the same width: no padding machinery.
            valid = None
            cids = starts[:, None] + cols[None, :]
        else:
            valid = cols[None, :] < counts[:, None]
            cids = np.where(valid, starts[:, None] + cols[None, :], 0)
        if self._vloss_active:
            n_i = self.visits[cids] + self.vloss[cids]
            totals = self.visits[nodes] + self.vloss[nodes]
        else:
            n_i = self.visits[cids]
            totals = self.visits[nodes]
        log_tot = self._log_totals(totals)[:, None]
        safe = np.where(n_i > 0.0, n_i, 1.0)
        if self.parallel_mode == "wuct":
            completed = self.visits[cids]
            safe_c = np.where(completed > 0.0, completed, 1.0)
            p = np.where(
                completed > 0.0, self.wins[cids] / safe_c, 0.5
            )
        else:
            p = self.wins[cids] / safe
        c = self.ucb_c
        if self.selection_rule == "ucb1_tuned":
            variance = p * (1.0 - p) + np.sqrt(2.0 * log_tot / safe)
            width_term = np.minimum(0.25, variance)
            score = p + c * np.sqrt(log_tot / safe * width_term)
        else:
            score = p + c * np.sqrt(log_tot / safe)
        # Unvisited children outrank everything (the scalar walk
        # returns the first one immediately); padding never wins.
        score = np.where(n_i <= 0.0, np.inf, score)
        if not uniform:
            score = np.where(valid, score, -np.inf)
        return starts + np.argmax(score, axis=1)

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

    def backprop_many(
        self,
        leaves: np.ndarray,
        simulations: float,
        wins_black: np.ndarray,
        wins_white: np.ndarray,
        draws: np.ndarray,
    ) -> None:
        """Vectorised backprop of one leaf per tree.

        Requires at most one leaf per tree (paths in distinct trees
        are disjoint, so fancy-indexed ``+=`` never collides).
        """
        cur = np.asarray(leaves, dtype=np.int64).copy()
        wb = np.asarray(wins_black, dtype=np.float64)
        ww = np.asarray(wins_white, dtype=np.float64)
        dr = np.asarray(draws, dtype=np.float64)
        act = cur >= 0
        while act.any():
            nodes = cur[act]
            self.visits[nodes] += simulations
            side = np.where(self.mover[nodes] == 1, wb[act], ww[act])
            self.wins[nodes] += side + 0.5 * dr[act]
            cur[act] = self.parent[nodes]
            act = cur >= 0

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

    def aggregate_stats(self) -> dict[int, tuple[float, float]]:
        return aggregate_stat_dicts(
            [self.root_stats(t) for t in range(self.n_trees)]
        )

    def majority_vote_stats(self) -> dict[int, tuple[float, float]]:
        return majority_vote_stat_dicts(
            [self.root_stats(t) for t in range(self.n_trees)]
        )

    def poison_root(self, t: int, bonus: float) -> bool:
        """Write ``bonus`` phantom wins straight into tree ``t``'s
        most-visited root child, *bypassing backprop* -- the
        ``poison=tree:K`` corruption fault.  Only a direct write like
        this can break the win-bound invariant :meth:`validate`
        checks; anything routed through backprop stays
        self-consistent.  Returns False before the root has
        children."""
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

    def node_count(self, t: int) -> int:
        return int(self.tree_node_count[t])

    def max_depth(self, t: int) -> int:
        return int(self.tree_max_depth[t])

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
        The log table is omitted (it regrows to identical values).
        """
        n = self._allocated
        live = self.to_move[:n].tolist()
        counts = self.untried_count[:n]
        widest = int(counts.max(initial=0))
        make_state = self.game.state_from_planes
        return {
            "kind": "arena",
            "ucb_c": self.ucb_c,
            "selection_rule": self.selection_rule,
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
        arena = object.__new__(cls)
        arena._attach(game)
        arena.ucb_c = snap["ucb_c"]
        arena.selection_rule = snap["selection_rule"]
        arena.parallel_mode = snap.get("parallel_mode", "vloss")
        arena.n_trees = snap["n_trees"]
        arena.rng_state = np.array(snap["rng_states"], dtype=np.uint64)
        arena._log_table = np.zeros(2, dtype=np.float64)
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
        improves gather locality for the vectorised selection.  Node
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
