"""Playout executor selection: the ``playout="numpy"|"compiled"`` seams.

One constructor argument (or the ``@compiled`` / ``@numpy`` spec
modifier) picks the executor; left unnamed, it is the one
:func:`repro.core.backend.default_stack` picks -- the compiled kernels
on an arena for a game that has them.  Either way it runs through one
seam, :func:`playout_launcher`: ``launch(bg, states, family_seed, lo=0,
lanes_per_state=1) -> (winners, finish_steps)``, lane ``lo + j`` of
``family_seed``'s stream family playing state ``j // lanes_per_state``.
A lane's draws depend on its family and its index only, so any
chunking or split of a launch gives the same answers.  The virtual GPU
launches this way -- launch ``j`` of a device on its own family, block
``b``'s lanes from position ``b`` -- and so do the serving batchers and
:class:`~repro.core.base.BatchExecutor`.

The compiled body takes positions (:class:`~repro.games.batch.Positions`
columns), not a batch object, and seeds the lanes in C.  The two bodies
are bit-identical by contract (same winners and finish steps), which
the differential walls pin (``tests/compiled/test_block.py``,
``tests/compiled/test_launch.py``); ``"compiled"`` degrades gracefully
to the NumPy body when no C toolchain is present.
"""

from __future__ import annotations

from functools import partial
from typing import Callable, Sequence

import numpy as np

from repro.compiled.runner import lane_range
from repro.games.batch import BatchGame, run_playouts_tracked
from repro.rng import BatchXorShift128Plus

#: Registered playout executors, in canonical order.
PLAYOUT_EXECUTORS = ("numpy", "compiled")

Launch = Callable[..., tuple[np.ndarray, np.ndarray]]


def validate_playout(playout: str) -> str:
    """Check an executor name; returns it for chaining."""
    if playout not in PLAYOUT_EXECUTORS:
        raise ValueError(
            f"unknown playout executor {playout!r}; "
            f"available: {PLAYOUT_EXECUTORS}"
        )
    return playout


def launch_numpy(
    bg: BatchGame,
    states: Sequence,
    family_seed: int,
    lo: int = 0,
    lanes_per_state: int = 1,
) -> tuple[np.ndarray, np.ndarray]:
    """``lanes_per_state`` playouts per state on lanes ``[lo, lo + n)``
    of ``family_seed``'s stream family, ``n = len(states) *
    lanes_per_state``, lane ``lo + j`` playing state ``j //
    lanes_per_state``: ``(winners int8[n], finish_steps int64[n])``.
    Lane ``lo + j`` draws what it draws in a full-width generator, so
    any chunking of a launch gives the same answers.  The NumPy body of
    :func:`playout_launcher` and the oracle of the compiled one.
    """
    n = lane_range(len(states), lanes_per_state, lo)
    if n == 0:
        return np.empty(0, dtype=np.int8), np.empty(0, dtype=np.int64)
    rng = BatchXorShift128Plus.for_lanes(family_seed, lo, lo + n)
    batch = bg.make_batch(list(states), lanes_per_state)
    tracked = run_playouts_tracked(bg, batch, rng)
    return tracked.winners, tracked.finish_steps


class Answers:
    """One launch's playout answers, lane for lane, in whichever of two
    forms its readers hold them: the ``(winners, plies)`` columns a
    launch wrote, or ``(winner, plies)`` pairs.  The select loop reads
    the columns (:meth:`columns`, float64 winners so that a corrupted
    one stays what it is), a round's Python body and the integrity
    screen the pairs (indexing, slicing, iterating); each form is built
    from the other on demand, once.  Assigning pairs to a slice (a
    screened readback adopted, a lost launch's neutral answers) makes
    the pairs the truth again."""

    __slots__ = ("_launched", "_pairs", "_columns")

    def __init__(self, winners: np.ndarray, plies: np.ndarray) -> None:
        self._launched = winners, plies
        self._pairs: "list | None" = None
        self._columns: "tuple[np.ndarray, np.ndarray] | None" = None

    @classmethod
    def of_pairs(cls, pairs) -> "Answers":
        answers = cls(None, None)
        answers._launched = None
        answers._pairs = list(pairs)
        return answers

    def pairs(self) -> list:
        """The answers as a list of ``(winner, plies)`` pairs."""
        if self._pairs is None:
            winners, plies = self._launched
            self._pairs = list(zip(winners.tolist(), plies.tolist()))
        return self._pairs

    def columns(self) -> tuple[np.ndarray, np.ndarray]:
        """``(winners float64, plies int64)``, one row per lane."""
        if self._columns is None:
            if self._launched is not None:
                winners, plies = self._launched
            else:
                pairs = self._pairs
                winners = [winner for winner, _ in pairs]
                plies = [n for _, n in pairs]
            self._columns = (
                np.asarray(winners, dtype=np.float64),
                np.asarray(plies, dtype=np.int64),
            )
        return self._columns

    def __len__(self) -> int:
        if self._pairs is None:
            return len(self._launched[1])
        return len(self._pairs)

    def __getitem__(self, index):
        return self.pairs()[index]

    def __setitem__(self, index: slice, pairs) -> None:
        self.pairs()[index] = pairs
        self._launched = self._columns = None

    def __iter__(self):
        return iter(self.pairs())

    def __eq__(self, other) -> bool:
        return self.pairs() == list(other)


def playout_launcher(playout: str, workers: bool = False) -> Launch:
    """The ``launch(bg, states, family_seed, lo=0, lanes_per_state=1)``
    body for ``playout``.  ``"compiled"`` consults the library on every
    launch, so a :func:`repro.compiled.reset_cache` takes effect at the
    next one, and falls back to :func:`launch_numpy` by itself; with
    ``workers`` (the virtual GPU's launches) it plays the chunks of
    lanes on the block workers."""
    validate_playout(playout)
    if playout == "compiled":
        from repro.compiled import launch_compiled

        if workers:
            return partial(launch_compiled, workers=True)
        return launch_compiled
    return launch_numpy


def playout_active(playout: str) -> str:
    """The executor that will actually run: ``"compiled"`` reports
    ``"numpy"`` when the kernel library is unavailable (fallback)."""
    validate_playout(playout)
    if playout == "compiled":
        from repro.compiled import compiled_available

        if compiled_available():
            return "compiled"
        return "numpy"
    return playout


__all__ = [
    "PLAYOUT_EXECUTORS",
    "Answers",
    "launch_numpy",
    "playout_launcher",
    "playout_active",
    "validate_playout",
]
