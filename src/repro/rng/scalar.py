"""Scalar xorshift64* generator for CPU-side engines."""

from __future__ import annotations

from repro.util.seeding import derive_seed

_MASK = 0xFFFF_FFFF_FFFF_FFFF
_MULT = 0x2545_F491_4F6C_DD1D


class XorShift64Star:
    """Marsaglia's xorshift64* -- 8 bytes of state, passes BigCrush's
    smaller batteries, and cheap enough that the RNG never dominates a
    playout.

    Parameters
    ----------
    seed:
        Any integer; it is mixed through splitmix64 so low-entropy seeds
        (0, 1, 2, ...) still give well-spread initial states.
    """

    __slots__ = ("_state",)

    def __init__(self, seed: int) -> None:
        self._state = derive_seed(seed) or 1

    def next_u64(self) -> int:
        """The next raw 64-bit output."""
        x = self._state
        x ^= (x >> 12)
        x ^= (x << 25) & _MASK
        x ^= (x >> 27)
        self._state = x
        return (x * _MULT) & _MASK

    def randrange(self, n: int) -> int:
        """Uniform integer in ``[0, n)``.

        Uses Lemire's multiply-shift reduction; the modulo bias at
        n << 2**64 is far below anything a Monte Carlo estimate could
        resolve, so no rejection loop is needed.
        """
        if n <= 0:
            raise ValueError(f"randrange needs a positive bound, got {n}")
        return (self.next_u64() * n) >> 64

    def shuffle(self, seq: list) -> None:
        """In-place Fisher-Yates shuffle.

        Draws exactly the same variates as ``randrange(i + 1)`` per
        swap; the xorshift step is inlined because engines shuffle an
        untried-move list for every node they create, making this the
        hottest RNG entry point.
        """
        x = self._state
        for i in range(len(seq) - 1, 0, -1):
            x ^= (x >> 12)
            x ^= (x << 25) & _MASK
            x ^= (x >> 27)
            j = (((x * _MULT) & _MASK) * (i + 1)) >> 64
            seq[i], seq[j] = seq[j], seq[i]
        self._state = x

    def fork(self, *path) -> "XorShift64Star":
        """An independent child generator keyed by ``path``."""
        return XorShift64Star(derive_seed(self.next_u64(), *path))

    # -- checkpointing -------------------------------------------------------

    def getstate(self) -> int:
        """The raw 64-bit state word; feed to :meth:`setstate` to resume
        the stream exactly where it left off."""
        return self._state

    def setstate(self, state: int) -> None:
        if not 0 < state <= _MASK:
            raise ValueError(f"invalid xorshift64* state: {state!r}")
        self._state = state

    @classmethod
    def from_state(cls, state: int) -> "XorShift64Star":
        """A generator resumed from a :meth:`getstate` word (no seed
        mixing -- the state is adopted verbatim)."""
        rng = object.__new__(cls)
        rng.setstate(state)
        return rng
