"""Tests for the virtual GPU playout runtime."""

import numpy as np
import pytest

from repro.games import Reversi
from repro.gpu import (
    TESLA_C2050,
    TOY_DEVICE,
    DeviceMemoryError,
    LaunchConfig,
    VirtualGpu,
)
from repro.util.clock import Clock


@pytest.fixture
def game():
    return Reversi()


def make_gpu(clock, game_name="reversi", spec=TESLA_C2050, seed=7):
    return VirtualGpu(spec, clock, game_name, seed=seed)


class TestRunPlayouts:
    def test_leaf_parallel_shape(self, game):
        clock = Clock()
        gpu = make_gpu(clock)
        cfg = LaunchConfig(4, 32)
        res = gpu.run_playouts([game.initial_state()], cfg)
        assert res.playouts == 128
        assert res.winners.shape == (128,)
        assert res.block_steps.shape == (4,)
        assert set(np.unique(res.winners)).issubset({-1, 0, 1})

    def test_clock_advances_by_kernel_time(self, game):
        clock = Clock()
        gpu = make_gpu(clock)
        res = gpu.run_playouts([game.initial_state()], LaunchConfig(2, 32))
        assert clock.now == pytest.approx(res.timing.total_s)

    def test_block_parallel_one_state_per_block(self, game):
        clock = Clock()
        gpu = make_gpu(clock)
        s0 = game.initial_state()
        s1 = game.apply(s0, 2 * 8 + 3)
        res = gpu.run_playouts([s0, s1], LaunchConfig(2, 32))
        assert res.playouts == 64

    def test_wrong_state_count_raises(self, game):
        gpu = make_gpu(Clock())
        with pytest.raises(ValueError, match="root states"):
            gpu.run_playouts(
                [game.initial_state()] * 3, LaunchConfig(2, 32)
            )

    def test_block_steps_bounded(self, game):
        gpu = make_gpu(Clock())
        res = gpu.run_playouts([game.initial_state()], LaunchConfig(2, 32))
        assert np.all(res.block_steps > 0)
        assert np.all(res.block_steps <= gpu.batch_game.max_game_length)

    def test_stats_accumulate(self, game):
        gpu = make_gpu(Clock())
        cfg = LaunchConfig(1, 32)
        gpu.run_playouts([game.initial_state()], cfg)
        gpu.run_playouts([game.initial_state()], cfg)
        assert gpu.stats.kernels_launched == 2
        assert gpu.stats.playouts_completed == 64
        assert gpu.stats.busy_seconds > 0

    def test_deterministic_with_same_seed(self, game):
        out = []
        for _ in range(2):
            gpu = make_gpu(Clock(), seed=42)
            res = gpu.run_playouts(
                [game.initial_state()], LaunchConfig(2, 32)
            )
            out.append(res.winners.copy())
        np.testing.assert_array_equal(out[0], out[1])

    def test_different_seeds_differ(self, game):
        a = make_gpu(Clock(), seed=1).run_playouts(
            [game.initial_state()], LaunchConfig(2, 64)
        )
        b = make_gpu(Clock(), seed=2).run_playouts(
            [game.initial_state()], LaunchConfig(2, 64)
        )
        assert not np.array_equal(a.winners, b.winners)


class TestAsyncLaunch:
    def test_async_returns_immediately(self, game):
        clock = Clock()
        gpu = make_gpu(clock)
        ev = gpu.launch_async([game.initial_state()], LaunchConfig(2, 32))
        assert clock.now == 0.0
        assert not gpu.stream.query(ev)
        result = gpu.stream.synchronize(ev)
        assert result.playouts == 64
        assert clock.now == pytest.approx(result.timing.total_s)

    def test_other_games(self):
        from repro.games import TicTacToe

        game = TicTacToe()
        gpu = make_gpu(Clock(), game_name="tictactoe")
        res = gpu.run_playouts([game.initial_state()], LaunchConfig(2, 32))
        assert res.playouts == 64
        assert np.all(res.block_steps <= 9)


class TestDeviceMemoryAccounting:
    def test_oom_on_absurd_grid(self, game):
        """A grid one lane larger than global memory holds (5 x 13 =
        65) is refused before it draws a random number, times a kernel
        or moves the clock; one that exactly fits (2 x 32) runs."""
        lanes = 64
        spec = TESLA_C2050.with_overrides(
            global_mem_bytes=lanes * VirtualGpu.DEVICE_BYTES_PER_LANE
        )
        clock = Clock()
        gpu = VirtualGpu(spec, clock, "reversi", seed=1)
        gpu.run_playouts([game.initial_state()], LaunchConfig(2, lanes // 2))
        before = repr(gpu.getstate()), clock.now
        with pytest.raises(DeviceMemoryError, match="out of device memory"):
            gpu.run_playouts([game.initial_state()], LaunchConfig(5, 13))
        assert (repr(gpu.getstate()), clock.now) == before
        assert gpu.stats.kernels_launched == 1


class TestToyDevice:
    def test_multi_wave_grid_runs(self, game):
        clock = Clock()
        gpu = make_gpu(clock, spec=TOY_DEVICE)
        # toy device: 4 concurrent 32-thread blocks; 12 blocks = 3 waves
        res = gpu.run_playouts([game.initial_state()], LaunchConfig(12, 32))
        assert res.playouts == 384
