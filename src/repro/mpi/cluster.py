"""In-process simulated MPI cluster.

Every rank owns a virtual :class:`~repro.util.clock.Clock`.  Rank-local
work is performed by calling :meth:`MpiCluster.run_on_ranks` with a
function executed once per rank (sequentially in real time, but each
rank charges only its own clock, so virtual time is genuinely
parallel).  Collectives operate on all ranks' values at once and charge
binomial-tree costs to every participant, then leave all clocks
synchronised at the collective's completion time -- the semantics of a
blocking MPI collective.

A :class:`~repro.faults.FaultInjector` can be attached to model lossy
vote aggregation: each non-root rank's contribution to ``reduce`` /
``allreduce`` may be dropped (the root's never is, so a reduction is
never empty).  Dropped contributions are counted in :attr:`dropped`;
timing is unaffected -- the collective still runs, the payload just
arrives without that rank's votes.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from repro.mpi.network import NetworkModel
from repro.util.clock import Clock
from repro.util.seeding import derive_seed


class MpiError(RuntimeError):
    """Raised on invalid communicator use."""


class RankContext:
    """What a rank-local function sees: its id, clock and seed."""

    def __init__(self, rank: int, size: int, clock: Clock, seed: int) -> None:
        self.rank = rank
        self.size = size
        self.clock = clock
        self.seed = seed

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"RankContext(rank={self.rank}, size={self.size})"


_REDUCE_OPS: dict[str, Callable] = {
    "sum": lambda values: _elementwise(values, np.add),
    "max": lambda values: _elementwise(values, np.maximum),
    "min": lambda values: _elementwise(values, np.minimum),
}


def _elementwise(values: Sequence, ufunc) -> object:
    acc = values[0]
    for v in values[1:]:
        acc = ufunc(acc, v)
    return acc


def _payload_bytes(value: object) -> int:
    """Approximate wire size of a reduced/broadcast payload."""
    if isinstance(value, np.ndarray):
        return int(value.nbytes)
    if isinstance(value, (int, float, np.integer, np.floating)):
        return 8
    if isinstance(value, (tuple, list)):
        return sum(_payload_bytes(v) for v in value)
    if isinstance(value, bytes):
        return len(value)
    # Conservative default for small pickled objects (root states etc.)
    return 64


class MpiCluster:
    """A fixed-size communicator over a simulated network."""

    def __init__(
        self,
        size: int,
        network: NetworkModel,
        seed: int = 0,
        injector=None,
    ) -> None:
        if size <= 0:
            raise MpiError(f"cluster size must be positive: {size}")
        self.size = size
        self.network = network
        self.injector = injector
        #: Rank contributions lost to injected message drops.
        self.dropped = 0
        self.clocks = [Clock() for _ in range(size)]
        self._contexts = [
            RankContext(r, size, self.clocks[r], derive_seed(seed, "rank", r))
            for r in range(size)
        ]

    # -- rank-local execution ------------------------------------------------

    def run_on_ranks(self, fn: Callable[[RankContext], object]) -> list:
        """Execute ``fn(ctx)`` once per rank; each rank charges its own
        clock inside ``fn``.  Returns the per-rank results."""
        return [fn(ctx) for ctx in self._contexts]

    # -- collectives -----------------------------------------------------------

    def bcast(self, value: object, root: int = 0) -> list:
        """Broadcast ``value`` from ``root``; returns one copy per rank."""
        self._check_rank(root)
        done = self._collective_done(_payload_bytes(value))
        for c in self.clocks:
            c.advance_to(done)
        return [value for _ in range(self.size)]

    def reduce(
        self, values: Sequence, op: str = "sum", root: int = 0
    ) -> object:
        """Reduce per-rank ``values`` to ``root``; returns the reduced
        value (as seen by the root)."""
        self._check_rank(root)
        result = self._apply_op(self._surviving(values, root), op)
        done = self._collective_done(_payload_bytes(values[root]))
        for c in self.clocks:
            c.advance_to(done)
        return result

    def allreduce(self, values: Sequence, op: str = "sum") -> list:
        """Reduce and redistribute; every rank gets the result."""
        result = self._apply_op(self._surviving(values, 0), op)
        nbytes = _payload_bytes(values[0])
        latest = max(c.now for c in self.clocks)
        done = latest + self.network.allreduce_time(nbytes, self.size)
        for c in self.clocks:
            c.advance_to(done)
        return [result for _ in range(self.size)]

    # -- helpers ---------------------------------------------------------------

    def _surviving(self, values: Sequence, keep_rank: int) -> list:
        """Drop injected-lossy rank contributions -- never
        ``keep_rank``'s, so the surviving list is never empty."""
        if len(values) != self.size:
            raise MpiError(
                f"expected one value per rank ({self.size}), "
                f"got {len(values)}"
            )
        if self.injector is None:
            return list(values)
        kept = []
        for rank, value in enumerate(values):
            if rank != keep_rank and self.injector.drop_message():
                self.dropped += 1
            else:
                kept.append(value)
        return kept

    def _apply_op(self, values: Sequence, op: str):
        if not 0 < len(values) <= self.size:
            raise MpiError(
                f"expected one value per rank ({self.size}), "
                f"got {len(values)}"
            )
        try:
            reducer = _REDUCE_OPS[op]
        except KeyError:
            raise MpiError(
                f"unknown reduce op {op!r}; available: "
                f"{sorted(_REDUCE_OPS)}"
            ) from None
        return reducer(list(values))

    def _collective_done(self, nbytes: int) -> float:
        latest = max(c.now for c in self.clocks)
        return latest + self.network.tree_collective_time(
            nbytes, self.size
        )

    def _check_rank(self, rank: int) -> None:
        if not 0 <= rank < self.size:
            raise MpiError(
                f"rank {rank} out of range for size {self.size}"
            )

    @property
    def elapsed(self) -> float:
        """Virtual time at the most advanced rank."""
        return max(c.now for c in self.clocks)
