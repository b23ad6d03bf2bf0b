"""The virtual SIMT device (substitute for the paper's Tesla C2050).

See DESIGN.md section 2 for why this substitution preserves the paper's
behaviour: block-parallel MCTS never communicates between blocks, so
algorithmic results depend only on how many playouts run per iteration
(reproduced exactly, vectorised) and on the relative cost of kernels vs
CPU iterations (reproduced by the analytic timing model calibrated to
the paper's throughput envelope).
"""

from repro.gpu.calibration import (
    CalibrationError,
    calibrated_kernel,
    fit_cycles_per_step,
)
from repro.gpu.device import (
    GTX_580,
    TESLA_C2050,
    TOY_DEVICE,
    DeviceSpec,
    get_device_spec,
    list_devices,
)
from repro.gpu.divergence import DivergenceReport, analyze_divergence
from repro.gpu.lease import DeviceLease, DevicePool, PoolError
from repro.gpu.kernel import (
    KernelSpec,
    LaunchConfig,
    playout_kernel_spec,
)
from repro.gpu.occupancy import Occupancy, occupancy
from repro.gpu.playout import (
    DeviceMemoryError,
    GpuStats,
    PlayoutResult,
    VirtualGpu,
)
from repro.gpu.scheduler import greedy_makespan
from repro.gpu.stream import Event, Stream, StreamError
from repro.gpu.timing import KernelTiming, kernel_time, peak_playout_rate, sm_step_time

__all__ = [
    "DeviceSpec",
    "TESLA_C2050",
    "GTX_580",
    "TOY_DEVICE",
    "get_device_spec",
    "list_devices",
    "DevicePool",
    "DeviceLease",
    "PoolError",
    "KernelSpec",
    "LaunchConfig",
    "playout_kernel_spec",
    "Occupancy",
    "occupancy",
    "greedy_makespan",
    "KernelTiming",
    "kernel_time",
    "peak_playout_rate",
    "sm_step_time",
    "DeviceMemoryError",
    "Stream",
    "Event",
    "StreamError",
    "VirtualGpu",
    "PlayoutResult",
    "GpuStats",
    "CalibrationError",
    "calibrated_kernel",
    "fit_cycles_per_step",
    "DivergenceReport",
    "analyze_divergence",
]
