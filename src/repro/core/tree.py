"""The MCTS search tree.

Statistics convention (standard UCT): a node's ``wins`` are counted
from the perspective of ``node.mover`` -- the player who made the move
*into* the node.  The parent chooses among children with UCB, and since
every child's mover is the parent's player-to-move, maximising child
win-rate is exactly maximising the chooser's success.  ``visits`` count
*simulations*, not iterations, so a leaf-parallel iteration that runs
1024 playouts adds 1024 visits along the path -- this is how the paper
aggregates GPU results into the tree.

Virtual loss (used by the tree-parallel baseline) adds phantom visits
during selection so concurrent workers spread out; it is reverted when
the real result arrives.
"""

from __future__ import annotations

import math
from typing import Iterator

from repro.core.policy import (
    SELECTION_RULES,
    validate_parallel_mode,
    validate_selection_rule,
)
from repro.games.base import Game, GameState
from repro.integrity.audit import audit_root_stats
from repro.rng import XorShift64Star


class Node:
    """One tree node; plain attributes, tuned for tight Python loops."""

    __slots__ = (
        "parent",
        "move",
        "state",
        "to_move",
        "mover",
        "children",
        "untried",
        "visits",
        "wins",
        "vloss",
        "terminal",
        "winner",
    )

    def __init__(
        self,
        parent: "Node | None",
        move: int | None,
        state: GameState,
        game: Game,
        rng: XorShift64Star,
    ) -> None:
        self.parent = parent
        self.move = move
        self.state = state
        self.to_move = game.to_move(state)
        # Who moved into this node; for the root, pretend the opponent
        # of the side to move did (keeps backprop uniform).
        self.mover = parent.to_move if parent is not None else -self.to_move
        legal = list(game.legal_moves(state))
        self.terminal = not legal
        self.winner = game.winner(state) if self.terminal else 0
        rng.shuffle(legal)
        self.untried = legal
        self.children: list[Node] = []
        self.visits = 0.0
        self.wins = 0.0
        self.vloss = 0.0

    def value(self) -> float:
        """Mean reward for this node's mover (0.5 if unvisited)."""
        total = self.visits + self.vloss
        if total <= 0:
            return 0.5
        return self.wins / total

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Node(move={self.move}, visits={self.visits:.0f}, "
            f"wins={self.wins:.1f}, children={len(self.children)})"
        )


class SearchTree:
    """One MCTS tree with UCB1 selection and single-node expansion."""

    #: Supported child-selection rules (shared with the arena backend).
    SELECTION_RULES = SELECTION_RULES

    def __init__(
        self,
        game: Game,
        root_state: GameState,
        rng: XorShift64Star,
        ucb_c: float = 1.0,
        selection_rule: str = "ucb1",
        parallel_mode: str = "vloss",
    ) -> None:
        if ucb_c < 0:
            raise ValueError(f"ucb_c must be non-negative: {ucb_c}")
        validate_selection_rule(selection_rule)
        validate_parallel_mode(parallel_mode)
        self.game = game
        self.rng = rng
        self.ucb_c = ucb_c
        self.selection_rule = selection_rule
        self.parallel_mode = parallel_mode
        self.root = Node(None, None, root_state, game, rng)
        if self.root.terminal:
            raise ValueError("cannot search a terminal position")
        self.node_count = 1
        self.max_depth = 0

    # -- selection + expansion ------------------------------------------------

    def select_expand(self) -> tuple[Node, int]:
        """Descend by UCB until a node with untried moves (expand one
        child and return it) or a terminal node (return it).  Returns
        ``(node, depth)``; the paper expands one node per iteration."""
        node = self.root
        depth = 0
        while True:
            if node.terminal:
                return node, depth
            if node.untried:
                move = node.untried.pop()
                child = Node(
                    node,
                    move,
                    self.game.apply(node.state, move),
                    self.game,
                    self.rng,
                )
                node.children.append(child)
                depth += 1
                self.node_count += 1
                if depth > self.max_depth:
                    self.max_depth = depth
                return child, depth
            node = self.best_child(node)
            depth += 1

    def best_child(self, node: Node) -> Node:
        """Selection-rule argmax over ``node``'s children.

        ``ucb1`` is the paper's formula; ``ucb1_tuned`` replaces the
        exploration width with the Bernoulli variance bound
        ``min(1/4, p(1-p) + sqrt(2 ln N / n))`` (Auer et al.), offered
        for the UCB ablation.

        ``vloss`` counters fold in according to the tree's
        ``parallel_mode``: under ``"vloss"`` they are phantom losing
        visits (mean and exploration term both see them); under
        ``"wuct"`` they are WU-UCT's unobserved-sample counts ``O`` --
        the exploration term uses ``N+O`` and ``n_i+O_i`` while the
        mean stays ``wins / completed visits``.
        """
        c = self.ucb_c
        tuned = self.selection_rule == "ucb1_tuned"
        wuct = self.parallel_mode == "wuct"
        total = node.visits + node.vloss
        log_total = math.log(total) if total > 1.0 else 0.0
        best = None
        best_score = -1.0
        for child in node.children:
            n_i = child.visits + child.vloss
            if n_i <= 0:
                return child  # unvisited child: explore immediately
            if wuct:
                p = (
                    child.wins / child.visits
                    if child.visits > 0
                    else 0.5
                )
            else:
                p = child.wins / n_i
            if tuned:
                variance = p * (1.0 - p) + math.sqrt(
                    2.0 * log_total / n_i
                )
                width = min(0.25, variance)
                score = p + c * math.sqrt(log_total / n_i * width)
            else:
                score = p + c * math.sqrt(log_total / n_i)
            if score > best_score:
                best_score = score
                best = child
        if best is None:
            raise RuntimeError("best_child called on a childless node")
        return best

    # -- statistics updates -----------------------------------------------------

    def backprop(
        self,
        node: Node,
        simulations: int,
        wins_black: float,
        wins_white: float,
        draws: float = 0.0,
    ) -> None:
        """Add ``simulations`` playout results along the path to the
        root.  ``wins_black``/``wins_white``/``draws`` partition the
        simulations by absolute outcome; draws count half for both
        sides (the usual 0/0.5/1 reward)."""
        while node is not None:
            node.visits += simulations
            side_wins = wins_black if node.mover == 1 else wins_white
            node.wins += side_wins + 0.5 * draws
            node = node.parent

    def backprop_winner(
        self, node: Node, winner: int, simulations: int = 1
    ) -> None:
        """Backprop ``simulations`` identical results (terminal leaf)."""
        self.backprop(
            node,
            simulations,
            simulations if winner == 1 else 0,
            simulations if winner == -1 else 0,
            simulations if winner == 0 else 0,
        )

    def apply_virtual_loss(self, node: Node, amount: float = 1.0) -> None:
        """Phantom visits (with zero wins) along the path: discourages
        other concurrent selections from piling onto the same leaf."""
        while node is not None:
            node.vloss += amount
            node = node.parent

    def revert_virtual_loss(self, node: Node, amount: float = 1.0) -> None:
        while node is not None:
            node.vloss -= amount
            node = node.parent

    # -- backend-neutral ref accessors ---------------------------------------

    # Engines address tree positions through opaque *refs* so the same
    # engine code drives this pointer tree (refs are ``Node`` objects)
    # and the array arena (refs are integer slots).

    def state_of(self, node: Node) -> GameState:
        return node.state

    def terminal_of(self, node: Node) -> bool:
        return node.terminal

    def winner_of(self, node: Node) -> int:
        return node.winner

    # -- reporting -----------------------------------------------------------------

    def root_stats(self) -> dict[int, tuple[float, float]]:
        """Per root move: ``(visits, wins)`` of the corresponding child
        (wins from the root player's perspective)."""
        return {
            child.move: (child.visits, child.wins)
            for child in self.root.children
        }

    def depth_of(self, node: Node) -> int:
        d = 0
        while node.parent is not None:
            node = node.parent
            d += 1
        return d

    def iter_nodes(self) -> Iterator[Node]:
        stack = [self.root]
        while stack:
            n = stack.pop()
            yield n
            stack.extend(n.children)

    # -- integrity surface ---------------------------------------------------

    def poison_root(self, bonus: float) -> bool:
        """Write ``bonus`` phantom wins straight into the most-visited
        root child, *bypassing backprop* -- the ``poison=tree:K``
        fault.  Backprop-mediated corruption always leaves a tree
        self-consistent; only a direct write like this can break the
        win-bound invariant the audit checks.  Returns False before
        the root has any children."""
        if not self.root.children:
            return False
        victim = max(
            self.root.children,
            key=lambda c: (c.visits, c.wins, -c.move),
        )
        victim.wins += bonus
        return True

    def audit_tree(self, legal_moves=None) -> str | None:
        """Walk the tree checking the statistics invariants every
        clean tree satisfies: finite, non-negative visits; wins within
        ``[0, visits]``; parent visits at least the sum of child visits
        (visit conservation).  Returns a violation description, or None.

        In-flight selections are accounted in ``vloss`` (both modes),
        not ``visits``/``wins``, so the audit holds at any point of a
        shared-tree round, not just at quiescence.
        """
        for node in self.iter_nodes():
            v, w = node.visits, node.wins
            if not (math.isfinite(v) and math.isfinite(w)):
                return f"node for move {node.move}: non-finite statistics"
            if v < 0:
                return f"node for move {node.move}: negative visits {v}"
            if w < -1e-9 or w > v + 1e-9:
                return (
                    f"node for move {node.move}: wins {w} outside "
                    f"[0, visits={v}]"
                )
            if node.children:
                child_visits = sum(c.visits for c in node.children)
                if v + 1e-9 < child_visits:
                    return (
                        f"node for move {node.move}: visits {v} < sum "
                        f"of child visits {child_visits}"
                    )
        return audit_root_stats(self.root_stats(), legal_moves)

    # -- stable ref tokens ---------------------------------------------------

    # Engines holding refs across a snapshot boundary (the pipeline
    # engine's in-flight selections) encode them as BFS indices -- the
    # same ordering :meth:`snapshot` serialises, so a token minted on
    # the live tree resolves to the equivalent node on a restored one.

    def _bfs_order(self) -> "list[Node]":
        order = [self.root]
        head = 0
        while head < len(order):
            order.extend(order[head].children)
            head += 1
        return order

    def ref_token(self, node: Node) -> int:
        """The BFS index of ``node`` (stable across snapshot/restore)."""
        for i, n in enumerate(self._bfs_order()):
            if n is node:
                return i
        raise ValueError("node is not part of this tree")

    def ref_from_token(self, token: int) -> Node:
        """Inverse of :meth:`ref_token` on this (possibly restored) tree."""
        return self._bfs_order()[token]

    # -- checkpointing -------------------------------------------------------

    def snapshot(self) -> dict:
        """A flat, picklable encoding of the whole tree.

        Nodes are serialised in breadth-first order as plain tuples
        (parent index, move, statistics, shuffled untried list, state);
        child-list order is the BFS emission order, so a rebuilt tree
        selects and expands exactly like the original.  The tree's RNG
        state rides along -- restoring never consumes fresh draws.
        """
        order: list[Node] = [self.root]
        index: dict[int, int] = {id(self.root): 0}
        head = 0
        while head < len(order):
            node = order[head]
            head += 1
            for child in node.children:
                index[id(child)] = len(order)
                order.append(child)
        nodes = [
            (
                index[id(n.parent)] if n.parent is not None else -1,
                n.move,
                n.state,
                int(n.to_move),
                int(n.mover),
                list(n.untried),
                n.visits,
                n.wins,
                n.vloss,
                n.terminal,
                int(n.winner),
            )
            for n in order
        ]
        return {
            "kind": "node_tree",
            "ucb_c": self.ucb_c,
            "selection_rule": self.selection_rule,
            "parallel_mode": self.parallel_mode,
            "rng_state": self.rng.getstate(),
            "node_count": self.node_count,
            "max_depth": self.max_depth,
            "nodes": nodes,
        }

    @classmethod
    def from_snapshot(cls, game: Game, snap: dict) -> "SearchTree":
        """Rebuild a tree from :meth:`snapshot` without touching game
        logic or consuming RNG draws (``Node.__init__`` shuffles, so
        nodes are reconstructed around it)."""
        tree = object.__new__(cls)
        tree.game = game
        tree.ucb_c = snap["ucb_c"]
        tree.selection_rule = snap["selection_rule"]
        tree.parallel_mode = snap.get("parallel_mode", "vloss")
        tree.rng = XorShift64Star.from_state(snap["rng_state"])
        tree.node_count = snap["node_count"]
        tree.max_depth = snap["max_depth"]
        order: list[Node] = []
        for (
            parent_idx,
            move,
            state,
            to_move,
            mover,
            untried,
            visits,
            wins,
            vloss,
            terminal,
            winner,
        ) in snap["nodes"]:
            node = object.__new__(Node)
            node.parent = order[parent_idx] if parent_idx >= 0 else None
            node.move = move
            node.state = state
            node.to_move = to_move
            node.mover = mover
            node.untried = list(untried)
            node.children = []
            node.visits = visits
            node.wins = wins
            node.vloss = vloss
            node.terminal = terminal
            node.winner = winner
            if node.parent is not None:
                node.parent.children.append(node)
            order.append(node)
        tree.root = order[0]
        return tree


def aggregate_stat_dicts(
    per_tree: "list[dict[int, tuple[float, float]]]",
) -> dict[int, tuple[float, float]]:
    """Sum per-move ``(visits, wins)`` dicts in tree order -- the
    root-parallel vote, how the paper merges block / root-parallel
    results at the root.

    Shared by both tree backends so the float accumulation order -- and
    therefore the aggregate, bit for bit -- is identical whichever
    representation produced the per-tree dicts.
    """
    agg: dict[int, list[float]] = {}
    for stats in per_tree:
        for move, (visits, wins) in stats.items():
            cell = agg.setdefault(move, [0.0, 0.0])
            cell[0] += visits
            cell[1] += wins
    return {m: (v, w) for m, (v, w) in agg.items()}


def majority_vote_stat_dicts(
    per_tree: "list[dict[int, tuple[float, float]]]",
) -> dict[int, tuple[float, float]]:
    """Chaslot-style plurality ballot over per-tree root stats: each
    tree casts one ballot for its own most-visited move; the returned
    "stats" count ballots as visits (wins carry the voting trees' win
    mass for tie-breaks).  Feeding this through
    ``select_move(..., MAX_VISITS)`` implements plurality voting."""
    ballots: dict[int, list[float]] = {}
    for stats in per_tree:
        if not stats:
            continue
        move = max(
            stats, key=lambda m: (stats[m][0], stats[m][1], -m)
        )
        cell = ballots.setdefault(move, [0.0, 0.0])
        cell[0] += 1.0
        cell[1] += stats[move][1]
    return {m: (v, w) for m, (v, w) in ballots.items()}


def trimmed_vote_stat_dicts(
    per_tree: "list[dict[int, tuple[float, float]]]",
    trim: float = 0.2,
) -> dict[int, tuple[float, float]]:
    """Byzantine-tolerant vote: a trimmed mean over per-tree shares.

    Each tree's root statistics are normalised to *shares* of its own
    total root visits (a tree that searched twice as long does not get
    twice the say, and a poisoned tree cannot buy weight with phantom
    mass).  Per move, the per-tree visit shares -- counting 0 for trees
    that never tried the move -- are sorted and the ``trim`` fraction
    is dropped from *each* end before averaging; win shares get the
    same treatment.  A single corrupted tree's inflated share lands in
    the trimmed tail, so with ``trim=0.2`` the vote tolerates up to 20%
    arbitrarily-Byzantine trees.  The means are scaled back by the
    ensemble's total visits so magnitudes stay comparable to the
    ``sum`` vote.  Trees with empty stats or zero root visits abstain.
    """
    if not 0.0 <= trim < 0.5:
        raise ValueError(f"trim fraction must be in [0, 0.5): {trim}")
    shares: list[tuple[dict[int, float], dict[int, float]]] = []
    total_visits = 0.0
    moves: list[int] = []
    seen: set[int] = set()
    for stats in per_tree:
        tree_total = sum(v for v, _ in stats.values())
        if not stats or tree_total <= 0:
            continue
        total_visits += tree_total
        shares.append(
            (
                {m: v / tree_total for m, (v, _) in stats.items()},
                {m: w / tree_total for m, (_, w) in stats.items()},
            )
        )
        for m in stats:
            if m not in seen:
                seen.add(m)
                moves.append(m)
    if not shares:
        return {}
    n = len(shares)
    k = int(n * trim)
    lo, hi = (k, n - k) if 2 * k < n else (0, n)
    out: dict[int, tuple[float, float]] = {}
    for m in moves:
        vs = sorted(s[0].get(m, 0.0) for s in shares)
        ws = sorted(s[1].get(m, 0.0) for s in shares)
        span = hi - lo
        out[m] = (
            sum(vs[lo:hi]) / span * total_visits,
            sum(ws[lo:hi]) / span * total_visits,
        )
    return out
