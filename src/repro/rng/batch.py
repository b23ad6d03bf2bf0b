"""Vectorised xorshift128+ with one stream per SIMT lane.

The batched playout kernels advance thousands of independent games in
lockstep; each lane needs its own PRNG state exactly as each CUDA thread
in the paper's kernel owns a private generator.  All lanes step together
with NumPy uint64 arithmetic.
"""

from __future__ import annotations

import numpy as np

from repro.util.bitops import U64
from repro.util.seeding import derive_seed

_S23 = U64(23)
_S17 = U64(17)
_S26 = U64(26)


def _splitmix64_vec(x: np.ndarray) -> np.ndarray:
    """Vectorised splitmix64 finaliser (seeding only)."""
    with np.errstate(over="ignore"):
        z = x + U64(0x9E37_79B9_7F4A_7C15)
        z = (z ^ (z >> U64(30))) * U64(0xBF58_476D_1CE4_E5B9)
        z = (z ^ (z >> U64(27))) * U64(0x94D0_49BB_1331_11EB)
        return z ^ (z >> U64(31))


def _lane_states(
    seed: int, lo: int, hi: int
) -> tuple[np.ndarray, np.ndarray]:
    """Initial ``(s0, s1)`` state arrays for lanes ``lo..hi`` of
    ``seed``'s stream family.  Lane ``i``'s state depends only on
    ``(seed, i)``, so any contiguous range reproduces exactly the
    matching slice of a full-width generator."""
    base = U64(derive_seed(seed))
    lanes = np.arange(lo, hi, dtype=U64)
    s0 = _splitmix64_vec(base + lanes * U64(2))
    s1 = _splitmix64_vec(base + lanes * U64(2) + U64(1))
    # xorshift128+ must never start at the all-zero state.
    dead = (s0 == 0) & (s1 == 0)
    if dead.any():
        s1[dead] = U64(0x9E37_79B9_7F4A_7C15)
    return s0, s1


class BatchXorShift128Plus:
    """``n`` parallel xorshift128+ streams.

    Parameters
    ----------
    n:
        Number of lanes (one per simulated GPU thread).
    seed:
        Root seed; lane ``i`` is seeded with ``derive_seed(seed, i)``
        for the low word and ``derive_seed(seed, i, 1)`` for the high
        word, so lanes never share state.
    """

    def __init__(self, n: int, seed: int) -> None:
        if n <= 0:
            raise ValueError(f"need at least one lane, got {n}")
        self._n = n
        # Vectorised splitmix64 seeding: lane i's state depends only on
        # (seed, i), so a width-4 generator produces the same first four
        # streams as a width-4096 one.
        self._s0, self._s1 = _lane_states(seed, 0, n)

    @classmethod
    def for_lanes(
        cls, seed: int, lo: int, hi: int
    ) -> "BatchXorShift128Plus":
        """Streams ``lo..hi`` of ``seed``'s lane family.

        Exactly the ``[lo:hi]`` slice of a full-width generator's
        lanes, without materialising the prefix -- this is what lets a
        chunked (or fused, or padded) launch assign lane ``i`` of a
        merged batch its geometry-independent stream no matter how the
        batch was split across kernels.
        """
        if lo < 0 or hi <= lo:
            raise ValueError(
                f"need a non-empty lane range, got [{lo}, {hi})"
            )
        rng = object.__new__(cls)
        rng._n = hi - lo
        rng._s0, rng._s1 = _lane_states(seed, lo, hi)
        return rng

    @property
    def n(self) -> int:
        return self._n

    def next_u64(self) -> np.ndarray:
        """One raw 64-bit output per lane (shape ``(n,)``)."""
        s1 = self._s0
        s0 = self._s1
        result = s0 + s1
        s1 = s1 ^ (s1 << _S23)
        self._s0 = s0
        self._s1 = s1 ^ s0 ^ (s1 >> _S17) ^ (s0 >> _S26)
        return result

    def randbelow(self, bounds: np.ndarray) -> np.ndarray:
        """Per-lane uniform integer in ``[0, bounds[i])``.

        Lanes with ``bounds[i] == 0`` return 0 (callers mask those lanes
        out; this mirrors how diverged GPU lanes execute but discard).
        Uses the multiply-shift reduction on the high 32 bits, which is
        exact enough for bounds up to a few thousand.
        """
        bounds = np.asarray(bounds)
        r32 = (self.next_u64() >> np.uint64(32)).astype(np.uint64)
        return ((r32 * bounds.astype(np.uint64)) >> np.uint64(32)).astype(
            np.int64
        )

    def select(self, mask: np.ndarray) -> "BatchXorShift128Plus":
        """A generator holding only the lanes where ``mask`` is true.

        Used when a lockstep batch compacts away finished lanes: the
        surviving lanes keep their exact streams.
        """
        mask = np.asarray(mask, dtype=bool)
        if mask.shape != (self._n,):
            raise ValueError(
                f"mask shape {mask.shape} does not match lane count "
                f"{self._n}"
            )
        if not mask.any():
            raise ValueError("cannot select zero lanes")
        child = object.__new__(BatchXorShift128Plus)
        child._n = int(mask.sum())
        child._s0 = self._s0[mask]
        child._s1 = self._s1[mask]
        return child

    # -- checkpointing -------------------------------------------------------

    def getstate(self) -> tuple[int, np.ndarray, np.ndarray]:
        """``(n, s0, s1)`` with copied state arrays; feed to
        :meth:`setstate`/:meth:`from_state` to resume every lane's
        stream exactly where it left off."""
        return (self._n, self._s0.copy(), self._s1.copy())

    def setstate(
        self, state: tuple[int, np.ndarray, np.ndarray]
    ) -> None:
        n, s0, s1 = state
        s0 = np.asarray(s0, dtype=U64)
        s1 = np.asarray(s1, dtype=U64)
        if n <= 0 or s0.shape != (n,) or s1.shape != (n,):
            raise ValueError(
                f"invalid xorshift128+ state: n={n}, "
                f"shapes {s0.shape}/{s1.shape}"
            )
        self._n = int(n)
        self._s0 = s0.copy()
        self._s1 = s1.copy()

    @classmethod
    def from_state(
        cls, state: tuple[int, np.ndarray, np.ndarray]
    ) -> "BatchXorShift128Plus":
        """A generator resumed from a :meth:`getstate` triple."""
        rng = object.__new__(cls)
        rng.setstate(state)
        return rng

    def state_digest(self) -> int:
        """A cheap checksum of all lane states (for regression tests)."""
        return int(
            (np.bitwise_xor.reduce(self._s0) << np.uint64(1))
            ^ np.bitwise_xor.reduce(self._s1)
        )
