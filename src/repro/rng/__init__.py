"""Random-number generation.

Two generators, mirroring what the paper's CUDA kernel needs:

* :class:`~repro.rng.scalar.XorShift64Star` -- a tiny, fast scalar PRNG
  for the CPU-side engines (sequential MCTS, tree ops).
* :class:`~repro.rng.batch.BatchXorShift128Plus` -- a vectorised PRNG
  with one independent state per SIMT lane, used by the batched playout
  kernels.  Each lane's stream is seeded via splitmix64 so lanes are
  decorrelated, the standard per-thread-stream construction in GPU
  Monte Carlo codes.  :class:`~repro.rng.batch.XorShift128PlusLane` is
  one of those lanes stepped in plain Python, for a playout played
  alone.
"""

from repro.rng.batch import BatchXorShift128Plus, XorShift128PlusLane
from repro.rng.scalar import XorShift64Star

__all__ = ["BatchXorShift128Plus", "XorShift128PlusLane", "XorShift64Star"]
