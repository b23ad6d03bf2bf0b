"""Canonical Zobrist position hashing for every game in the stack.

A position's *Zobrist key* is the XOR of one fixed 64-bit key per
``(plane, square)`` occupancy bit, plus a side-to-move key when player
``-1`` is on move.  The tables are derived deterministically from the
game's name with :func:`repro.util.seeding.derive_seed`, so the key of
a position is a **cross-process, cross-version contract**: the cluster
router places requests by it, replicas agree on it without
coordination, and the shared result cache uses it as the canonical
position identity (see docs/cluster.md).

One fold is provided: :meth:`ZobristTable.fold`, over a pair of
Python-int bitboards, which :meth:`repro.games.base.Game.zobrist_key`
calls on a position's planes.
"""

from __future__ import annotations

from repro.util.seeding import derive_seed

#: Root seed of every Zobrist table.  Changing it invalidates every
#: persisted cache key and cross-node placement -- treat as frozen.
ZOBRIST_ROOT = 0x20110B1D

#: Number of board squares each plane key table covers.  64 covers
#: every bitboard in the stack (TicTacToe uses 9, Connect-4 49).
NUM_SQUARES = 64


class ZobristTable:
    """Per-game key material and the fold over it."""

    __slots__ = ("game", "piece_keys", "side_key")

    def __init__(self, game: str) -> None:
        self.game = game
        self.piece_keys: tuple[tuple[int, ...], ...] = tuple(
            tuple(
                derive_seed(ZOBRIST_ROOT, game, plane, square)
                for square in range(NUM_SQUARES)
            )
            for plane in (0, 1)
        )
        self.side_key: int = derive_seed(ZOBRIST_ROOT, game, "side")

    def fold_plane(self, plane: int, bits: int) -> int:
        """XOR of the plane's keys over the set bits of ``bits``."""
        keys = self.piece_keys[plane]
        acc = 0
        while bits:
            low = bits & -bits
            acc ^= keys[low.bit_length() - 1]
            bits ^= low
        return acc

    def fold(self, p1: int, p2: int, to_move: int) -> int:
        """Full-recompute key of a position given its two occupancy
        planes (player +1 discs, player -1 discs) and side to move."""
        key = self.fold_plane(0, p1) ^ self.fold_plane(1, p2)
        if to_move == -1:
            key ^= self.side_key
        return key


_TABLES: dict[str, ZobristTable] = {}


def table_for(game: str) -> ZobristTable:
    """The (cached) Zobrist table of game ``game``."""
    table = _TABLES.get(game)
    if table is None:
        table = ZobristTable(game)
        _TABLES[game] = table
    return table
