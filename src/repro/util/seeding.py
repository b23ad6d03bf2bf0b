"""Deterministic seed derivation.

Experiments fan out over (game index, player, engine, rank, block, ...)
coordinates.  Each coordinate tuple must map to an independent,
reproducible random stream.  We derive child seeds with splitmix64 over
a hash of the path, the standard construction for counter-based seeding
in parallel Monte Carlo codes.
"""

from __future__ import annotations

from typing import Iterable

_MASK = 0xFFFF_FFFF_FFFF_FFFF
_GOLDEN = 0x9E37_79B9_7F4A_7C15


def splitmix64(x: int) -> int:
    """One splitmix64 output step; a high-quality 64-bit mixer."""
    x = (x + _GOLDEN) & _MASK
    z = x
    z = ((z ^ (z >> 30)) * 0xBF58_476D_1CE4_E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D0_49BB_1331_11EB) & _MASK
    return z ^ (z >> 31)


def fold_seed(state: int, path: Iterable[int | str]) -> int:
    """Fold further coordinates onto a partially folded derivation:
    ``state`` is ``splitmix64(root)`` or an earlier ``fold_seed``, and
    ``derive_seed(root, *a, *b) == fold_seed(fold_seed(splitmix64(root),
    a), b) or _GOLDEN`` -- a caller that derives many seeds under one
    prefix folds the prefix once (:class:`SeedLadder` does).  ``path``
    is one argument so that :func:`derive_seed` hands its own tuple on
    (re-packing it costs a quarter of a microsecond per seed).
    """
    for part in path:
        if isinstance(part, str):
            for byte in part.encode("utf-8"):
                state = splitmix64(state ^ byte)
        else:
            state = splitmix64(state ^ (part & _MASK))
    return state


def derive_seed(root: int, *path: int | str) -> int:
    """Derive a 64-bit child seed from a root seed and a coordinate path.

    Distinct paths give (with overwhelming probability) distinct,
    decorrelated seeds; the same path always gives the same seed.
    """
    # Avoid the all-zero state some xorshift generators cannot accept.
    return fold_seed(splitmix64(root & _MASK), path) or _GOLDEN


class SeedLadder:
    """A root seed plus a fixed prefix path, folded once; each
    :meth:`seed` extends the path.

    >>> ladder = SeedLadder(42, "fig6")
    >>> a = ladder.seed("game", 0)
    >>> b = ladder.seed("game", 1)
    >>> a != b
    True
    >>> ladder.seed("game", 0) == a
    True
    """

    def __init__(self, root: int, *prefix: int | str) -> None:
        #: The derivation folded as far as the prefix reaches.
        self._state = fold_seed(splitmix64(root & _MASK), prefix)

    def seed(self, *path: int | str) -> int:
        """``derive_seed(root, *prefix, *path)``."""
        return fold_seed(self._state, path) or _GOLDEN
