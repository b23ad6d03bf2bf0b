"""Applying and detecting silent data corruption in kernel results.

Two result shapes cross the host boundary and both are covered here:

* **Block results** -- the flat ``winners`` array of one
  :class:`~repro.gpu.playout.PlayoutResult` (one int8 winner per SIMT
  lane, grouped by block).  The standalone block-parallel engine's
  round validates these before backprop.
* **Answers** -- the ``(winner, finish_steps)`` tuples, one per lane,
  that answer a CPU round: screened by a self-driven round itself, or
  by the serving stack's lane batcher before the tenants' rounds.

The corruption *applicators* mangle a copy (never the original) exactly
as a :class:`~repro.faults.Corruption` decision dictates; the
*validators* implement the host-boundary result contract: every value
finite, winners in ``{-1, 0, 1}``, playout lengths in ``[0,
MAX_PLIES]``.  Four of the five modes violate that contract and are
detectable per value; ``moveswap`` exchanges two *valid* results
(misattributing playouts to the wrong block/lane) and can only be
caught by the ensemble defenses -- audits, quarantine and the trimmed
vote (see docs/integrity.md).
"""

from __future__ import annotations

import math

import numpy as np

from repro.faults.injector import Corruption

#: Upper bound on a plausible playout length in plies.  Generous (no
#: supported game approaches it) but finite, so overflowed counters are
#: rejected at the boundary.
MAX_PLIES = 1 << 20

#: Winner values the games can produce (white win, draw, black win).
WINNER_DOMAIN = (-1, 0, 1)


def _flip_mask(salt: int) -> int:
    """A single-bit XOR mask guaranteed to knock an int8 winner out of
    ``{-1, 0, 1}``: bits 2..6 turn 0/1/-1 into values of magnitude >= 3."""
    return 1 << (2 + salt % 5)


# -- block results (flat winners array) ---------------------------------------


def apply_block_corruption(
    winners: np.ndarray,
    blocks: int,
    threads_per_block: int,
    corruption: Corruption,
) -> np.ndarray:
    """A corrupted copy of a kernel's flat ``winners`` array.

    ``corruption.lane`` indexes the flat array; ``moveswap`` swaps two
    whole block rows (every winner in block A attributed to block B's
    leaf and vice versa) and is a no-op for single-block grids.
    """
    lane = corruption.lane % winners.shape[0]
    salt = corruption.salt
    mode = corruption.mode
    if mode == "bitflip":
        out = winners.astype(np.int16)
        out[lane] ^= _flip_mask(salt)
    elif mode == "nan":
        out = winners.astype(np.float64)
        out[lane] = np.nan
    elif mode == "negative":
        out = winners.astype(np.int16)
        out[lane] = -(3 + salt % 125)
    elif mode == "overflow":
        out = winners.astype(np.int16)
        out[lane] = 3 + salt % 30000
    elif mode == "moveswap":
        out = winners.copy()
        if blocks > 1:
            b1 = lane // threads_per_block
            b2 = (b1 + 1 + salt % (blocks - 1)) % blocks
            rows = out.reshape(blocks, threads_per_block)
            rows[[b1, b2]] = rows[[b2, b1]]
    else:  # pragma: no cover - plan validation rejects unknown modes
        raise ValueError(f"unknown corruption mode {mode!r}")
    return out


def validate_winners(winners: np.ndarray) -> str | None:
    """The host-boundary contract for a kernel's winners: every value
    finite and in ``{-1, 0, 1}``.  Returns a violation description, or
    None for a clean result."""
    arr = np.asarray(winners)
    if np.issubdtype(arr.dtype, np.floating) and not np.isfinite(arr).all():
        return "non-finite winner value in kernel result"
    if not np.isin(arr, WINNER_DOMAIN).all():
        bad = arr[~np.isin(arr, WINNER_DOMAIN)]
        return f"winner value {bad.flat[0]} outside {{-1, 0, 1}}"
    return None


# -- serving answers (per-lane (winner, plies) tuples) ------------------------


def apply_answer_corruption(
    answers: "list[tuple[int, int]]",
    corruption: Corruption,
) -> "list[tuple[float, float]]":
    """A corrupted copy of a merged launch's per-lane answers."""
    out = [tuple(a) for a in answers]
    lane = corruption.lane % len(out)
    salt = corruption.salt
    mode = corruption.mode
    winner, plies = out[lane]
    if mode == "bitflip":
        out[lane] = (int(winner) ^ _flip_mask(salt), plies)
    elif mode == "nan":
        out[lane] = (float("nan"), plies)
    elif mode == "negative":
        out[lane] = (winner, -1 - int(plies))
    elif mode == "overflow":
        out[lane] = (winner, int(plies) + (1 << 31))
    elif mode == "moveswap":
        if len(out) > 1:
            other = (lane + 1 + salt % (len(out) - 1)) % len(out)
            out[lane], out[other] = out[other], out[lane]
    else:  # pragma: no cover - plan validation rejects unknown modes
        raise ValueError(f"unknown corruption mode {mode!r}")
    return out


def validate_answers(answers: "list[tuple[float, float]]") -> str | None:
    """The host-boundary contract for merged-launch answers: winners
    finite and in the domain, playout lengths finite and in
    ``[0, MAX_PLIES]``."""
    for i, (winner, plies) in enumerate(answers):
        if not (math.isfinite(winner) and math.isfinite(plies)):
            return f"non-finite value in lane {i} answer"
        if winner not in WINNER_DOMAIN:
            return f"lane {i} winner {winner} outside {{-1, 0, 1}}"
        if not 0 <= plies <= MAX_PLIES:
            return f"lane {i} playout length {plies} out of range"
    return None
