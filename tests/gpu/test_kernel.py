"""Tests for kernel specs and launch configurations."""

import pytest

from repro.gpu import TESLA_C2050, KernelSpec, LaunchConfig, playout_kernel_spec


class TestLaunchConfig:
    def test_total_threads(self):
        assert LaunchConfig(16, 64).total_threads == 1024

    def test_rejects_zero_blocks(self):
        with pytest.raises(ValueError):
            LaunchConfig(0, 64)

    def test_rejects_zero_threads(self):
        with pytest.raises(ValueError):
            LaunchConfig(1, 0)

    def test_warps_round_up(self):
        cfg = LaunchConfig(3, 40)
        assert cfg.warps_per_block(TESLA_C2050) == 2

    def test_exact_warp_multiple(self):
        assert LaunchConfig(2, 128).warps_per_block(TESLA_C2050) == 4

    def test_validate_block_size(self):
        LaunchConfig(1, 1024).validate(TESLA_C2050)
        with pytest.raises(ValueError, match="exceeds"):
            LaunchConfig(1, 2048).validate(TESLA_C2050)


class TestKernelSpec:
    def test_registry(self):
        for name in ("reversi", "tictactoe", "connect4"):
            spec = playout_kernel_spec(name)
            assert spec.cycles_per_step > 0

    def test_unknown_game(self):
        with pytest.raises(ValueError, match="no playout kernel"):
            playout_kernel_spec("go")

    def test_rejects_bad_costs(self):
        with pytest.raises(ValueError):
            KernelSpec(name="k", cycles_per_step=0)
        with pytest.raises(ValueError):
            KernelSpec(
                name="k", cycles_per_step=100, latency_cycles_per_step=50
            )
        with pytest.raises(ValueError):
            KernelSpec(name="k", divergence_overhead=0.5)
