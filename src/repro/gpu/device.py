"""Virtual GPU device specifications.

The reproduction cannot run CUDA, so the GPU is modelled: a device is a
set of streaming multiprocessors (SMs) executing 32-lane SIMT warps,
with Fermi-era residency limits and an analytic timing model
(:mod:`repro.gpu.timing`).  The default spec mirrors the NVIDIA Tesla
C2050 boards of TSUBAME 2.0 used in the paper; the calibration constants
(cycles per playout step, launch latency) were chosen so the simulated
device's playout throughput envelope matches the paper's Figure 5
(~9e5 playouts/s peak for leaf parallelism).
"""

from __future__ import annotations

from dataclasses import dataclass, replace


@dataclass(frozen=True)
class DeviceSpec:
    """Static hardware description of a virtual GPU."""

    name: str
    #: Number of streaming multiprocessors.
    sm_count: int
    #: SIMT width; warps always execute 32 lanes in lockstep.
    warp_size: int = 32
    #: Residency limits per SM (Fermi defaults).
    max_threads_per_block: int = 1024
    max_blocks_per_sm: int = 8
    max_threads_per_sm: int = 1536
    max_warps_per_sm: int = 48
    #: Register file and shared memory per SM.
    registers_per_sm: int = 32768
    shared_mem_per_sm: int = 49152
    #: Shader clock in Hz.
    clock_hz: float = 1.15e9
    #: Warp instruction issue throughput per SM per cycle.
    issue_per_cycle: float = 1.0
    #: Fixed cost of a kernel launch observed by the host, seconds.
    kernel_launch_latency_s: float = 10e-6
    #: Host<->device transfer: fixed latency + inverse bandwidth.
    transfer_latency_s: float = 8e-6
    transfer_bandwidth_Bps: float = 5.0e9
    #: Global memory capacity in bytes (allocation accounting only).
    global_mem_bytes: int = 3 * 1024**3

    def __post_init__(self) -> None:
        if self.sm_count <= 0:
            raise ValueError(f"sm_count must be positive: {self.sm_count}")
        if self.warp_size <= 0:
            raise ValueError(f"warp_size must be positive: {self.warp_size}")
        if self.clock_hz <= 0:
            raise ValueError(f"clock_hz must be positive: {self.clock_hz}")
        if self.max_threads_per_sm < self.max_threads_per_block:
            raise ValueError(
                "max_threads_per_sm must be >= max_threads_per_block"
            )

    @property
    def max_resident_threads(self) -> int:
        """Threads the whole device can keep resident at once."""
        return self.sm_count * self.max_threads_per_sm

    def with_overrides(self, **kwargs) -> "DeviceSpec":
        """A copy of this spec with some fields replaced."""
        return replace(self, **kwargs)


#: The paper's GPU: Tesla C2050 (Fermi GF100), 14 SMs at 1.15 GHz.
TESLA_C2050 = DeviceSpec(name="tesla_c2050", sm_count=14)

#: A contemporary consumer Fermi part, for cross-device ablations.
GTX_580 = DeviceSpec(
    name="gtx_580",
    sm_count=16,
    clock_hz=1.544e9,
)

#: A deliberately tiny device so unit tests exercise multi-wave
#: scheduling with small grids.
TOY_DEVICE = DeviceSpec(
    name="toy",
    sm_count=2,
    max_blocks_per_sm=2,
    max_threads_per_sm=256,
    max_threads_per_block=256,
    max_warps_per_sm=8,
    clock_hz=1.0e9,
)

_REGISTRY = {
    spec.name: spec for spec in (TESLA_C2050, GTX_580, TOY_DEVICE)
}


def get_device_spec(name: str) -> DeviceSpec:
    """Look up a device spec by name."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise ValueError(
            f"unknown device {name!r}; available: {sorted(_REGISTRY)}"
        ) from None


def list_devices() -> tuple[DeviceSpec, ...]:
    """All registered device specs, sorted by name.

    The public accessor for device enumeration -- callers must not
    reach into the private registry.
    """
    return tuple(_REGISTRY[name] for name in sorted(_REGISTRY))
