"""The virtual GPU runtime: launches batched playout kernels.

This is where the substitution happens: the *results* of a kernel come
from really playing the games (vectorised, one NumPy row per SIMT
lane), while the *cost* comes from the analytic timing model.  Both the
leaf-parallel and block-parallel engines, and the hybrid engine, go
through :class:`VirtualGpu`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.executors import DEFAULT_PLAYOUT, block_launcher
from repro.games import make_batch_game
from repro.games.batch import Positions
from repro.gpu.device import DeviceSpec
from repro.gpu.kernel import KernelSpec, LaunchConfig, playout_kernel_spec
from repro.gpu.stream import Event, Stream
from repro.gpu.timing import KernelTiming, kernel_time
from repro.rng import BatchXorShift128Plus
from repro.util.clock import Clock
from repro.util.seeding import derive_seed


class DeviceMemoryError(RuntimeError):
    """Raised when a launch's buffers do not fit in global memory."""


@dataclass(frozen=True)
class PlayoutResult:
    """Outcome of one playout kernel execution.

    ``winners``/``scores`` are absolute (player +1's perspective), one
    entry per lane; lanes are grouped by block:
    ``winners.reshape(config.blocks, config.threads_per_block)`` puts
    block ``b``'s lanes in row ``b``.
    """

    config: LaunchConfig
    winners: np.ndarray  # int8 (total_threads,)
    scores: np.ndarray  # int16 (total_threads,)
    block_steps: np.ndarray  # int64 (blocks,)
    timing: KernelTiming

    @property
    def playouts(self) -> int:
        return int(self.winners.shape[0])


@dataclass
class GpuStats:
    """Cumulative activity counters for one virtual GPU."""

    kernels_launched: int = 0
    playouts_completed: int = 0
    busy_seconds: float = 0.0


class VirtualGpu:
    """One simulated GPU: device spec + stream + RNG lanes."""

    #: Bytes per lane copied back after a kernel (win flag + score).
    RESULT_BYTES_PER_LANE = 4
    #: Device bytes a lane holds for the kernel's duration: its game
    #: state (own/opp boards + flags), its RNG state and its result.
    DEVICE_BYTES_PER_LANE = 24 + 16 + RESULT_BYTES_PER_LANE

    def __init__(
        self,
        spec: DeviceSpec,
        clock: Clock,
        game_name: str,
        seed: int,
        kernel: KernelSpec | None = None,
        playout: str = DEFAULT_PLAYOUT,
    ) -> None:
        self.spec = spec
        self.clock = clock
        self.game_name = game_name
        self.playout = playout
        self._launch_block = block_launcher(playout)
        self.kernel = kernel or playout_kernel_spec(game_name)
        self.batch_game = make_batch_game(game_name)
        self.stream = Stream(clock)
        self.stats = GpuStats()
        self._seed = derive_seed(seed, "gpu", spec.name)
        self._rng_cache: dict[int, BatchXorShift128Plus] = {}

    def _rng(self, lanes: int) -> BatchXorShift128Plus:
        """Per-width generator, persistent across launches (each CUDA
        thread keeps its RNG state in global memory between kernels)."""
        rng = self._rng_cache.get(lanes)
        if rng is None:
            rng = BatchXorShift128Plus(lanes, self._seed)
            self._rng_cache[lanes] = rng
        return rng

    # -- checkpointing -----------------------------------------------------

    def getstate(self) -> dict:
        """Everything a resumed search needs to replay this device's
        randomness and accounting exactly: the persistent per-width
        lane RNG states (each CUDA thread's global-memory generator),
        the cumulative stats, and the stream timeline."""
        return {
            "rngs": {
                lanes: rng.getstate()
                for lanes, rng in self._rng_cache.items()
            },
            "stats": (
                self.stats.kernels_launched,
                self.stats.playouts_completed,
                self.stats.busy_seconds,
            ),
            "busy_until": self.stream._busy_until,
        }

    def setstate(self, state: dict) -> None:
        self._rng_cache = {
            int(lanes): BatchXorShift128Plus.from_state(s)
            for lanes, s in state["rngs"].items()
        }
        kernels, playouts, busy = state["stats"]
        self.stats = GpuStats(
            kernels_launched=int(kernels),
            playouts_completed=int(playouts),
            busy_seconds=float(busy),
        )
        self.stream = Stream(self.clock)
        self.stream._busy_until = float(state["busy_until"])

    # -- kernel execution --------------------------------------------------

    def _execute(
        self, states, config: LaunchConfig
    ) -> PlayoutResult:
        """Actually play the batched games and model their cost.
        ``states`` is a :class:`Positions` or a sequence of states."""
        config.validate(self.spec)
        if len(states) not in (1, config.blocks):
            raise ValueError(
                f"got {len(states)} root states for {config.blocks} "
                "blocks; pass 1 (leaf parallel) or one per block "
                "(block parallel)"
            )
        if not isinstance(states, Positions):
            states = Positions(states)
        n = config.total_threads
        # Fails like real hardware would on absurd grids, before any
        # lane draws a random number.
        nbytes = n * self.DEVICE_BYTES_PER_LANE
        if nbytes > self.spec.global_mem_bytes:
            raise DeviceMemoryError(
                f"out of device memory: {n} lanes need {nbytes} bytes, "
                f"{self.spec.name} has {self.spec.global_mem_bytes}"
            )
        tracked = self._launch_block(
            self.batch_game, states, n // len(states), self._rng(n)
        )
        block_steps = tracked.finish_steps.reshape(
            config.blocks, config.threads_per_block
        ).max(axis=1)
        result_bytes = n * self.RESULT_BYTES_PER_LANE
        timing = kernel_time(
            self.spec,
            self.kernel,
            config,
            block_steps,
            transfer_bytes=result_bytes,
        )
        self.stats.kernels_launched += 1
        self.stats.playouts_completed += n
        self.stats.busy_seconds += timing.total_s
        return PlayoutResult(
            config=config,
            winners=tracked.winners,
            scores=tracked.scores,
            block_steps=block_steps,
            timing=timing,
        )

    def run_playouts(self, states, config: LaunchConfig) -> PlayoutResult:
        """Synchronous launch from ``states`` -- a sequence of states
        or a :class:`~repro.games.batch.Positions`, one per block or
        one for the grid: the host blocks, the clock advances by the
        kernel's full modelled duration."""
        result = self._execute(states, config)
        self.stream.launch(result.timing.total_s, payload=result)
        self.stream.synchronize_all()
        return result

    def launch_async(self, states, config: LaunchConfig) -> Event:
        """Asynchronous launch (the hybrid scheme): returns immediately
        with an event; the host must ``stream.synchronize(event)`` (or
        poll ``stream.query``) before using the payload."""
        result = self._execute(states, config)
        return self.stream.launch(result.timing.total_s, payload=result)
