"""The scalar game interface shared by every engine in the stack.

Conventions
-----------
* Players are ``+1`` (the first mover) and ``-1``.
* A *move* is a small non-negative integer id; games that can pass
  expose an explicit pass move id so MCTS treats passing like any other
  edge in the tree.
* ``winner`` is ``+1`` / ``-1`` / ``0`` (draw) in absolute terms;
  ``score`` is the point difference from player ``+1``'s perspective
  (Reversi: disc difference -- the y-axis of the paper's Figures 7/8).
"""

from __future__ import annotations

import abc
from typing import Hashable, Sequence

from repro.rng import XorShift64Star

GameState = Hashable


class Game(abc.ABC):
    """Abstract scalar game: immutable states, integer moves."""

    #: Human-readable identifier ("reversi", ...).
    name: str
    #: Exclusive upper bound on move ids (size of the move alphabet).
    num_moves: int
    #: Upper bound on the number of plies in any game (used by the SIMT
    #: kernel to bound its lockstep loop).
    max_game_length: int

    @abc.abstractmethod
    def initial_state(self) -> GameState:
        """The starting position."""

    @abc.abstractmethod
    def to_move(self, state: GameState) -> int:
        """The player (+1/-1) whose turn it is."""

    @abc.abstractmethod
    def legal_moves(self, state: GameState) -> tuple[int, ...]:
        """All legal move ids; never empty for a non-terminal state."""

    @abc.abstractmethod
    def apply(self, state: GameState, move: int) -> GameState:
        """The successor state after ``move`` (must be legal)."""

    @abc.abstractmethod
    def is_terminal(self, state: GameState) -> bool:
        """Whether the game has ended."""

    @abc.abstractmethod
    def winner(self, state: GameState) -> int:
        """+1/-1/0 for a terminal state."""

    @abc.abstractmethod
    def score(self, state: GameState) -> int:
        """Point difference (player +1 minus player -1); 0 if the game
        has no notion of points beyond the winner."""

    def legal_mask(self, state: GameState) -> int:
        """Bitmask of legal move ids: bit ``m`` set iff ``m`` is legal.

        Invariant (tested per game): iterating the set bits lowest
        first reproduces :meth:`legal_moves` exactly, so a zero mask
        means the state is terminal.  The array-backed tree arena
        (:mod:`repro.core.arena`) builds its untried-move bookkeeping
        from this mask; games with bitboard move generation override it
        to skip the tuple materialisation.
        """
        mask = 0
        for move in self.legal_moves(state):
            mask |= 1 << move
        return mask

    def render(self, state: GameState) -> str:
        """ASCII diagram of the position (optional, for examples)."""
        return repr(state)

    # -- canonical position hashing (see repro.games.zobrist) --------------

    def zobrist_planes(self, state: GameState) -> tuple[int, int]:
        """The two occupancy bitboards hashed by the Zobrist fold:
        ``(player +1 discs, player -1 discs)`` in *absolute* colours.
        Together with :meth:`to_move` these must determine the
        position completely -- two states with equal planes and side
        to move are the same position."""
        raise NotImplementedError(
            f"{self.name} does not define Zobrist occupancy planes"
        )

    def state_from_planes(
        self, p1: int, p2: int, to_move: int
    ) -> GameState:
        """Inverse of :meth:`zobrist_planes` + :meth:`to_move`: the
        position with those occupancy planes and that side to move.
        The tree arena stores positions as plane columns and rebuilds
        the state object on demand."""
        raise NotImplementedError(
            f"{self.name} does not define Zobrist occupancy planes"
        )

    def zobrist_key(self, state: GameState) -> int:
        """Canonical 64-bit Zobrist key of ``state`` (full recompute).

        The key is a cross-process contract: the cluster router hashes
        it for consistent placement and the shared result cache keys
        on it (docs/cluster.md).  Use :meth:`zobrist_apply` to advance
        a key incrementally along a move sequence.
        """
        from repro.games.zobrist import table_for

        p1, p2 = self.zobrist_planes(state)
        return table_for(self.name).fold(p1, p2, self.to_move(state))

    def zobrist_apply(
        self, state: GameState, move: int, key: int
    ) -> tuple[GameState, int]:
        """Apply ``move`` and incrementally update the position key.

        Only the *changed* occupancy bits are folded (XOR of keys is
        self-inverse), so the cost is proportional to the move's
        footprint -- one bit for a drop, the flip set for Reversi --
        not the board size.  Equals ``(next, zobrist_key(next))`` by
        contract, pinned property-style in the test suite.
        """
        from repro.games.zobrist import table_for

        nxt = self.apply(state, move)
        p1, p2 = self.zobrist_planes(state)
        q1, q2 = self.zobrist_planes(nxt)
        key = table_for(self.name).fold_update(
            key,
            p1 ^ q1,
            p2 ^ q2,
            self.to_move(state) != self.to_move(nxt),
        )
        return nxt, key

    def playout(self, state: GameState, rng) -> tuple[int, int]:
        """One uniformly random playout: ``(absolute winner, plies)``.

        The default walks the generic move API; games override it with
        an inlined fast path (Reversi does) -- behaviour must stay
        identical, which the test suite cross-checks.
        """
        return random_playout(self, state, rng)

    def validate_move(self, state: GameState, move: int) -> None:
        """Raise ``ValueError`` if ``move`` is illegal in ``state``."""
        if move not in self.legal_moves(state):
            raise ValueError(
                f"illegal move {move} in {self.name} state {state!r}"
            )


def random_playout(
    game: Game, state: GameState, rng: XorShift64Star
) -> tuple[int, int]:
    """Play uniformly random moves to the end of the game.

    Returns ``(winner, plies)`` where ``winner`` is absolute (+1/-1/0).
    This is the CPU-side simulation step of sequential MCTS; the GPU
    engines use the batched kernels instead.
    """
    plies = 0
    while not game.is_terminal(state):
        moves = game.legal_moves(state)
        state = game.apply(state, moves[rng.randrange(len(moves))])
        plies += 1
    return game.winner(state), plies


def playout_with_policy(
    game: Game,
    state: GameState,
    rng: XorShift64Star,
    policy,
) -> tuple[int, int]:
    """Like :func:`random_playout` but moves are chosen by ``policy``,
    a callable ``(game, state, moves, rng) -> move``.  Used by the
    greedy baseline player and by tests that need directed playouts."""
    plies = 0
    while not game.is_terminal(state):
        moves = game.legal_moves(state)
        state = game.apply(state, policy(game, state, moves, rng))
        plies += 1
    return game.winner(state), plies


def enumerate_states(game: Game, max_depth: int) -> Sequence[GameState]:
    """Breadth-first enumeration of all states up to ``max_depth`` plies.

    Only feasible for tiny games (TicTacToe); used by exhaustive tests.
    """
    frontier = [game.initial_state()]
    seen = list(frontier)
    for _ in range(max_depth):
        nxt = []
        for s in frontier:
            if game.is_terminal(s):
                continue
            for m in game.legal_moves(s):
                nxt.append(game.apply(s, m))
        seen.extend(nxt)
        frontier = nxt
        if not frontier:
            break
    return seen
