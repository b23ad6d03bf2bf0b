"""Kernel descriptions and launch configurations."""

from __future__ import annotations

from dataclasses import dataclass

from repro.gpu.device import DeviceSpec


@dataclass(frozen=True)
class LaunchConfig:
    """A CUDA-style grid: ``blocks`` x ``threads_per_block``."""

    blocks: int
    threads_per_block: int

    def __post_init__(self) -> None:
        if self.blocks <= 0:
            raise ValueError(f"blocks must be positive: {self.blocks}")
        if self.threads_per_block <= 0:
            raise ValueError(
                f"threads_per_block must be positive: "
                f"{self.threads_per_block}"
            )

    @property
    def total_threads(self) -> int:
        return self.blocks * self.threads_per_block

    def warps_per_block(self, spec: DeviceSpec) -> int:
        """Warps per block, rounding partial warps up (SIMT: a 40-thread
        block occupies two full warps, 24 lanes idle)."""
        ws = spec.warp_size
        return -(-self.threads_per_block // ws)

    def validate(self, spec: DeviceSpec) -> None:
        """Raise if this grid cannot launch on ``spec`` at all."""
        if self.threads_per_block > spec.max_threads_per_block:
            raise ValueError(
                f"block of {self.threads_per_block} threads exceeds "
                f"{spec.name}'s limit of {spec.max_threads_per_block}"
            )


@dataclass(frozen=True)
class KernelSpec:
    """Performance-relevant characteristics of a kernel.

    ``cycles_per_step`` is the calibrated warp-issue cost of one
    lockstep game ply (move generation + flip + RNG for all 32 lanes);
    ``latency_cycles_per_step`` is the dependent-latency floor a single
    warp experiences per ply, which dominates when occupancy is too low
    to hide it -- this is what makes 1-thread launches absurdly
    inefficient on the simulated device, as on the real one.
    """

    name: str
    cycles_per_step: float = 7500.0
    latency_cycles_per_step: float = 30000.0
    registers_per_thread: int = 40
    shared_mem_per_block: int = 0
    #: Multiplier >= 1 modelling intra-warp branch divergence (random
    #: playouts take different branches per lane).
    divergence_overhead: float = 1.15

    def __post_init__(self) -> None:
        if self.cycles_per_step <= 0:
            raise ValueError("cycles_per_step must be positive")
        if self.latency_cycles_per_step < self.cycles_per_step:
            raise ValueError(
                "latency_cycles_per_step cannot be below cycles_per_step"
            )
        if self.divergence_overhead < 1.0:
            raise ValueError("divergence_overhead must be >= 1.0")


#: Calibrated playout kernel for Reversi (see DESIGN.md section 5).
REVERSI_PLAYOUT_KERNEL = KernelSpec(name="reversi_playout")

#: Cheaper kernels for the smaller domains.
TICTACTOE_PLAYOUT_KERNEL = KernelSpec(
    name="tictactoe_playout",
    cycles_per_step=900.0,
    latency_cycles_per_step=3600.0,
)
CONNECT4_PLAYOUT_KERNEL = KernelSpec(
    name="connect4_playout",
    cycles_per_step=1800.0,
    latency_cycles_per_step=7200.0,
)
BREAKTHROUGH_PLAYOUT_KERNEL = KernelSpec(
    name="breakthrough_playout",
    cycles_per_step=3000.0,
    latency_cycles_per_step=12000.0,
)

_KERNELS = {
    "reversi": REVERSI_PLAYOUT_KERNEL,
    "tictactoe": TICTACTOE_PLAYOUT_KERNEL,
    "connect4": CONNECT4_PLAYOUT_KERNEL,
    "breakthrough": BREAKTHROUGH_PLAYOUT_KERNEL,
}


def playout_kernel_spec(game_name: str) -> KernelSpec:
    """The calibrated playout kernel spec for a game."""
    try:
        return _KERNELS[game_name]
    except KeyError:
        raise ValueError(
            f"no playout kernel calibrated for {game_name!r}; "
            f"available: {sorted(_KERNELS)}"
        ) from None
