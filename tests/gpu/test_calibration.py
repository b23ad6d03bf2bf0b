"""Tests for kernel calibration fitting, and a pin of the anchor it fits.

The Reversi kernel constants were fitted so that the paper's largest
leaf launch, 224 blocks x 64 threads, sustains about the 8.5e5
playouts/s the paper measured on a Tesla C2050 (Figure 5).  The pin
goes through the product's ``kernel_time``: a saturating stream of
identical launches of mean length 65 steps.
"""

import numpy as np
import pytest

from repro.gpu import TESLA_C2050, LaunchConfig, kernel_time, playout_kernel_spec
from repro.gpu.calibration import (
    CalibrationError,
    calibrated_kernel,
    fit_cycles_per_step,
)
from repro.gpu.timing import peak_playout_rate

KERNEL = playout_kernel_spec("reversi")
CONFIG = LaunchConfig(224, 64)  # the paper's largest leaf launch
PAPER_RATE = 8.5e5


class TestFit:
    def test_round_trip(self):
        """Fitting to the kernel's own rate recovers its cycles."""
        rate = peak_playout_rate(TESLA_C2050, KERNEL, CONFIG, 65.0)
        cycles = fit_cycles_per_step(
            TESLA_C2050, KERNEL, CONFIG, rate, 65.0
        )
        assert cycles == pytest.approx(KERNEL.cycles_per_step, rel=1e-3)

    def test_calibrated_kernel_hits_target(self):
        target = 5.0e5
        fitted = calibrated_kernel(
            TESLA_C2050, KERNEL, CONFIG, target, 65.0
        )
        achieved = peak_playout_rate(TESLA_C2050, fitted, CONFIG, 65.0)
        assert achieved == pytest.approx(target, rel=1e-3)

    def test_preserves_latency_ratio(self):
        fitted = calibrated_kernel(
            TESLA_C2050, KERNEL, CONFIG, 4.0e5, 65.0
        )
        assert (
            fitted.latency_cycles_per_step / fitted.cycles_per_step
        ) == pytest.approx(
            KERNEL.latency_cycles_per_step / KERNEL.cycles_per_step
        )

    def test_paper_envelope_is_reachable(self):
        """The paper's ~8.5e5 playouts/s peak must be in range for the
        default calibration bounds (it is the calibration anchor)."""
        cycles = fit_cycles_per_step(
            TESLA_C2050, KERNEL, CONFIG, 8.5e5, 65.0
        )
        assert 100 < cycles < 1e6


class TestErrors:
    def test_unreachable_target(self):
        with pytest.raises(CalibrationError, match="unreachable"):
            fit_cycles_per_step(
                TESLA_C2050, KERNEL, CONFIG, 1e12, 65.0
            )

    def test_nonpositive_target(self):
        with pytest.raises(CalibrationError):
            fit_cycles_per_step(TESLA_C2050, KERNEL, CONFIG, 0.0)

    def test_bad_latency_ratio(self):
        with pytest.raises(CalibrationError, match="ratio"):
            fit_cycles_per_step(
                TESLA_C2050, KERNEL, CONFIG, 1e5, latency_ratio=0.5
            )


class TestAnchorPin:
    @staticmethod
    def sustained_rate(mean_steps: float = 65.0) -> float:
        steps = np.full(CONFIG.blocks, mean_steps)
        timing = kernel_time(TESLA_C2050, KERNEL, CONFIG, steps)
        return CONFIG.total_threads / timing.total_s

    def test_reversi_kernel_constants(self):
        assert KERNEL.cycles_per_step == 7500.0
        assert KERNEL.latency_cycles_per_step == 30000.0

    def test_c2050_sustained_rate(self):
        assert self.sustained_rate() == pytest.approx(918_386, rel=1e-5)

    def test_rate_within_ten_percent_of_paper(self):
        rate = self.sustained_rate()
        assert abs(rate - PAPER_RATE) / PAPER_RATE < 0.10
