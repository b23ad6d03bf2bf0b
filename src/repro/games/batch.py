"""Batched (SIMT) game interface and vectorised bit-selection helpers.

A *batch* is a struct-of-arrays holding one game per lane; every call to
:meth:`BatchGame.step` advances all still-active lanes by one random ply
in lockstep, exactly the way the paper's CUDA playout kernel advances
one game per GPU thread.  Finished lanes keep executing (masked out),
which is also faithful: a SIMT warp cannot retire individual lanes.
"""

from __future__ import annotations

import abc
import dataclasses
from typing import Iterator, Sequence

import numpy as np

from repro.games.base import Game, GameState
from repro.rng import BatchXorShift128Plus

# ---------------------------------------------------------------------------
# n-th set bit extraction, vectorised
# ---------------------------------------------------------------------------

def _build_nth_bit_table() -> np.ndarray:
    """``table[byte, k]`` = position (0..7) of the k-th set bit of byte."""
    table = np.zeros((256, 8), dtype=np.uint8)
    for byte in range(256):
        k = 0
        for pos in range(8):
            if byte >> pos & 1:
                table[byte, k] = pos
                k += 1
    return table


_NTH_BIT = _build_nth_bit_table()
_LANE_CACHE: dict[int, np.ndarray] = {}


def _lanes(n: int) -> np.ndarray:
    arange = _LANE_CACHE.get(n)
    if arange is None:
        arange = np.arange(n)
        _LANE_CACHE[n] = arange
    return arange


def select_nth_bit(masks: np.ndarray, n: np.ndarray) -> np.ndarray:
    """Per lane, the index (0..63) of the ``n[i]``-th set bit of
    ``masks[i]``.

    ``n[i]`` must be smaller than ``popcount(masks[i])``; lanes with an
    empty mask return index 0 and must be masked out by the caller (the
    usual diverged-lane convention).  Runs in O(1) vector passes via a
    per-byte popcount prefix sum plus a 256x8 lookup table.
    """
    flat = np.ascontiguousarray(masks, dtype=np.uint64)
    count = flat.shape[0]
    as_bytes = flat.view(np.uint8).reshape(count, 8)
    counts = np.bitwise_count(as_bytes).astype(np.int64)
    cum = np.cumsum(counts, axis=1)
    n_col = np.asarray(n, dtype=np.int64).reshape(count, 1)
    byte_idx = (cum <= n_col).sum(axis=1)
    byte_idx = np.minimum(byte_idx, 7)  # clamp for empty masks
    lanes = _lanes(count)
    prefix = cum[lanes, byte_idx] - counts[lanes, byte_idx]
    within = (np.asarray(n, dtype=np.int64) - prefix).clip(0, 7)
    byte_val = as_bytes[lanes, byte_idx]
    return byte_idx.astype(np.int64) * 8 + _NTH_BIT[byte_val, within]


def select_random_bit(
    masks: np.ndarray, rng: BatchXorShift128Plus
) -> np.ndarray:
    """A uniformly random set bit per lane, as a one-bit uint64 mask.

    Lanes with an empty mask get 0.  One RNG step is consumed by *all*
    lanes (lockstep), whether or not their result is used.
    """
    pop = np.bitwise_count(masks).astype(np.int64)
    picks = rng.randbelow(pop)
    idx = select_nth_bit(masks, picks)
    bits = np.uint64(1) << idx.astype(np.uint64)
    return np.where(pop > 0, bits, np.uint64(0))


# ---------------------------------------------------------------------------
# The positions of a launch
# ---------------------------------------------------------------------------

class Positions:
    """The positions one kernel launch plays from, in whichever of two
    forms its caller holds them: a sequence of game states, or the
    ``(plane1, plane2, to_move)`` columns a tree arena stores (absolute
    colours, ``uint64`` / ``uint64`` / ``int8``, one row per position).
    Each consumer reads the form it plays from -- ``make_batch`` the
    states, the compiled kernels the columns -- and the other form is
    built on demand, once.
    """

    __slots__ = ("_states", "_columns", "_game")

    def __init__(self, states: Sequence[GameState]) -> None:
        #: ``None`` until somebody iterates a column-built value.
        self._states = states
        #: ``None`` until somebody asks a state-built value for them.
        self._columns = None
        self._game = None

    @classmethod
    def from_columns(
        cls,
        game: Game,
        plane1: np.ndarray,
        plane2: np.ndarray,
        to_move: np.ndarray,
    ) -> "Positions":
        """Row ``i`` is the position ``game.state_from_planes`` builds
        from ``(plane1[i], plane2[i], to_move[i])``."""
        positions = cls(None)
        positions._columns = (plane1, plane2, to_move)
        positions._game = game
        return positions

    def __len__(self) -> int:
        if self._states is None:
            return len(self._columns[2])
        return len(self._states)

    def __iter__(self) -> Iterator[GameState]:
        if self._states is None:
            self._states = list(
                map(
                    self._game.state_from_planes,
                    *(column.tolist() for column in self._columns),
                )
            )
        return iter(self._states)

    def columns(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(plane1, plane2, to_move)``, contiguous.  Every game's
        state *is* that triple (what ``Game.state_from_planes``
        builds), so staging states is a transpose."""
        if self._columns is None:
            plane1, plane2, to_move = tuple(zip(*self._states)) or ((),) * 3
            self._columns = (
                np.array(plane1, dtype=np.uint64),
                np.array(plane2, dtype=np.uint64),
                np.array(to_move, dtype=np.int8),
            )
        return self._columns


# ---------------------------------------------------------------------------
# Batch game interface
# ---------------------------------------------------------------------------

class BatchGame(abc.ABC):
    """Vectorised engine advancing many independent games in lockstep."""

    #: Matches the scalar engine's name.
    name: str
    #: Lockstep loop bound (same as the scalar ``max_game_length``).
    max_game_length: int

    @abc.abstractmethod
    def make_batch(
        self, states: Sequence[GameState], lanes_per_state: int
    ):
        """A batch of ``len(states) * lanes_per_state`` lanes; lanes
        ``[i*lanes_per_state, (i+1)*lanes_per_state)`` all start from
        ``states[i]``.  Leaf parallelism passes one state; block
        parallelism passes one state per block."""

    @abc.abstractmethod
    def step(self, batch, rng: BatchXorShift128Plus) -> int:
        """Advance every active lane one uniformly-random ply.  Returns
        the number of lanes still active afterwards."""

    @abc.abstractmethod
    def active(self, batch) -> np.ndarray:
        """Boolean mask of lanes whose game has not finished."""

    @abc.abstractmethod
    def winners(self, batch) -> np.ndarray:
        """Per-lane absolute winner (+1 first player, -1, 0 draw).
        Only meaningful for finished lanes."""

    @abc.abstractmethod
    def scores(self, batch) -> np.ndarray:
        """Per-lane point difference from player +1's perspective."""

    def zobrist_plane_arrays(
        self, batch
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Per-lane occupancy planes in *absolute* colours plus side
        to move: ``(player +1 boards, player -1 boards, to_move)``.
        Batch games that store boards from the side-to-move's
        perspective un-swap them here so the key matches the scalar
        :meth:`repro.games.base.Game.zobrist_key` lane by lane."""
        raise NotImplementedError(
            f"{self.name} does not define Zobrist occupancy planes"
        )

    def zobrist_keys(self, batch) -> np.ndarray:
        """Canonical per-lane Zobrist keys (uint64), equal to the
        scalar key of each lane's position by contract -- the batch
        half of the cross-process position identity the cluster
        router and result cache rely on (docs/cluster.md)."""
        from repro.games.zobrist import table_for

        p1, p2, to_move = self.zobrist_plane_arrays(batch)
        return table_for(self.name).fold_arrays(p1, p2, to_move)

    def compact(self, batch, keep: np.ndarray):
        """A new batch holding only the lanes where ``keep`` is true.

        Batches are dataclasses of equal-length arrays, so compaction is
        generic.  Used to retire finished lanes mid-playout: pure
        performance, the surviving lanes' games are untouched.
        """
        keep = np.asarray(keep, dtype=bool)
        kwargs = {
            f.name: getattr(batch, f.name)[keep]
            for f in dataclasses.fields(batch)
        }
        return type(batch)(**kwargs)

    def run_playouts(
        self, batch, rng: BatchXorShift128Plus
    ) -> tuple[np.ndarray, int]:
        """Drive ``step`` until every lane finishes.

        Returns ``(winners, steps)`` where ``steps`` is the number of
        lockstep iterations executed -- the quantity the GPU timing
        model charges for, since a SIMT grid runs as long as its
        slowest lane.
        """
        steps = 0
        while self.active(batch).any():
            if steps >= self.max_game_length:
                raise RuntimeError(
                    f"{self.name} playout exceeded max_game_length="
                    f"{self.max_game_length}; engine bug"
                )
            self.step(batch, rng)
            steps += 1
        return self.winners(batch), steps


@dataclasses.dataclass(frozen=True)
class TrackedPlayouts:
    """Per-lane playout outcomes with finish-step telemetry."""

    winners: np.ndarray  # int8 (n,), absolute
    scores: np.ndarray  # int16 (n,)
    finish_steps: np.ndarray  # int64 (n,), lockstep ply each lane ended


#: When the lockstep driver compacts finished lanes away: a batch of at
#: least ``MIN_COMPACT_SIZE`` lanes whose active fraction drops below
#: ``COMPACT_THRESHOLD``.  Where the first compaction fires decides how
#: far the *caller's* generator advances, so the compiled entries play
#: by the same two numbers.
COMPACT_THRESHOLD = 0.5
MIN_COMPACT_SIZE = 64


def run_playouts_tracked(
    game: BatchGame,
    batch,
    rng: BatchXorShift128Plus,
    compact_threshold: float = COMPACT_THRESHOLD,
    min_compact_size: int = MIN_COMPACT_SIZE,
) -> TrackedPlayouts:
    """Drive a batch to completion, recording each lane's finish step.

    Finished lanes are *compacted away* once the active fraction drops
    below ``compact_threshold`` -- a pure performance move (in the real
    SIMT kernel those lanes keep executing masked, which costs nothing
    extra to model because the timing charge uses the recorded finish
    steps, not the Python loop).
    """
    n = len(batch)
    winners = np.zeros(n, dtype=np.int8)
    scores = np.zeros(n, dtype=np.int16)
    finish = np.zeros(n, dtype=np.int64)
    origin = np.arange(n)

    active = game.active(batch)
    # Lanes terminal at entry (finish step 0).
    if not active.all():
        done = ~active
        winners[origin[done]] = game.winners(batch)[done]
        scores[origin[done]] = game.scores(batch)[done]

    steps = 0
    while active.any():
        if steps >= game.max_game_length:
            raise RuntimeError(
                f"{game.name} playout exceeded max_game_length="
                f"{game.max_game_length}; engine bug"
            )
        game.step(batch, rng)
        steps += 1
        now_active = game.active(batch)
        newly_done = active & ~now_active
        if newly_done.any():
            finish[origin[newly_done]] = steps
        active = now_active

        live = int(active.sum())
        if (
            live
            and len(batch) >= min_compact_size
            and live < compact_threshold * len(batch)
        ):
            done = ~active
            winners[origin[done]] = game.winners(batch)[done]
            scores[origin[done]] = game.scores(batch)[done]
            batch = game.compact(batch, active)
            rng = rng.select(active)
            origin = origin[active]
            active = game.active(batch)

    if len(batch):
        winners[origin] = game.winners(batch)
        scores[origin] = game.scores(batch)
    return TrackedPlayouts(
        winners=winners, scores=scores, finish_steps=finish
    )
