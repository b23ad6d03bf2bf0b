"""Playout executor selection: the ``playout="numpy"|"compiled"`` seams.

One constructor argument (or the ``@compiled`` / ``@numpy`` spec
modifier) picks the executor; left unnamed, it is the one
:func:`repro.core.backend.default_stack` picks -- the compiled kernels
on an arena for a game that has them.  Either way it runs through two
seams:

* :func:`block_launcher` -- ``lanes_per_state`` playouts per position
  on the *caller's* generator: ``launch_block(bg, positions,
  lanes_per_state, rng) -> TrackedPlayouts``.  The virtual GPU launches
  this way -- block ``b``'s lanes play from position ``b`` -- and its
  per-width generator persists across launches, so where a launch
  leaves it is observable.
* :func:`playout_launcher` -- one playout per state on a *fresh* lane
  family: ``launch(bg, states, family_seed, lo=0) -> (winners,
  finish_steps)``.  The serving batchers and
  :class:`~repro.core.base.BatchExecutor` launch this way; their
  generators never outlive the call, so the compiled body seeds the
  lanes in C.

The compiled bodies take positions (:class:`~repro.games.batch.Positions`
columns), not a batch object.  Both pairs of bodies are bit-identical
by contract (same winners and finish steps; for the block seam also
scores and RNG side effects), which the differential walls pin
(``tests/compiled/test_block.py``, ``tests/compiled/test_launch.py``);
``"compiled"`` degrades gracefully to the NumPy bodies when no C
toolchain is present.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from repro.games.batch import (
    BatchGame,
    Positions,
    TrackedPlayouts,
    run_playouts_tracked,
)
from repro.rng import BatchXorShift128Plus

#: Registered playout executors, in canonical order.
PLAYOUT_EXECUTORS = ("numpy", "compiled")

LaunchBlock = Callable[..., TrackedPlayouts]
Launch = Callable[..., tuple[np.ndarray, np.ndarray]]


def validate_playout(playout: str) -> str:
    """Check an executor name; returns it for chaining."""
    if playout not in PLAYOUT_EXECUTORS:
        raise ValueError(
            f"unknown playout executor {playout!r}; "
            f"available: {PLAYOUT_EXECUTORS}"
        )
    return playout


def launch_block_numpy(
    bg: BatchGame,
    positions: Positions | Sequence,
    lanes_per_state: int,
    rng: BatchXorShift128Plus,
) -> TrackedPlayouts:
    """``lanes_per_state`` playouts per position, lanes ``[i *
    lanes_per_state, (i + 1) * lanes_per_state)`` of ``rng`` playing
    position ``i``; ``rng`` ends advanced as far as the lockstep loop
    ran before its first compaction.  The NumPy body of
    :func:`block_launcher` and the oracle of the compiled one."""
    batch = bg.make_batch(list(positions), lanes_per_state)
    return run_playouts_tracked(bg, batch, rng)


def block_launcher(playout: str) -> LaunchBlock:
    """The ``launch_block(bg, positions, lanes_per_state, rng)`` body
    for ``playout``.

    ``"compiled"`` consults the library on every launch, so a
    :func:`repro.compiled.reset_cache` takes effect at the next one,
    and falls back to :func:`launch_block_numpy` by itself.
    """
    validate_playout(playout)
    if playout == "compiled":
        from repro.compiled import block_compiled

        return block_compiled
    return launch_block_numpy


def launch_numpy(
    bg: BatchGame, states: Sequence, family_seed: int, lo: int = 0
) -> tuple[np.ndarray, np.ndarray]:
    """One playout per state on lanes ``[lo, lo + len(states))`` of
    ``family_seed``'s stream family: ``(winners int8[n], finish_steps
    int64[n])``.  Lane ``lo + i`` draws what it draws in a full-width
    generator, so any chunking of a batch gives the same answers.  The
    NumPy body of :func:`playout_launcher` and the oracle of the
    compiled one.
    """
    n = len(states)
    # Past 2**63 the compiled body's ``int64`` lane argument would wrap;
    # both bodies refuse, so they stay interchangeable.
    if lo < 0 or lo + n > 2**63:
        raise ValueError(
            f"need a lane range inside [0, 2**63), got [{lo}, {lo + n})"
        )
    if n == 0:
        return np.empty(0, dtype=np.int8), np.empty(0, dtype=np.int64)
    rng = BatchXorShift128Plus.for_lanes(family_seed, lo, lo + n)
    batch = bg.make_batch(list(states), 1)
    tracked = run_playouts_tracked(bg, batch, rng)
    return tracked.winners, tracked.finish_steps


def playout_launcher(playout: str) -> Launch:
    """The ``launch(bg, states, family_seed, lo=0)`` body for
    ``playout``.  Like :func:`block_launcher`, ``"compiled"`` consults
    the library on every launch and falls back to :func:`launch_numpy`
    by itself."""
    validate_playout(playout)
    if playout == "compiled":
        from repro.compiled import launch_compiled

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
    "block_launcher",
    "launch_block_numpy",
    "launch_numpy",
    "playout_launcher",
    "playout_active",
    "validate_playout",
]
