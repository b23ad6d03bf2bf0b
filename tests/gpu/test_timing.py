"""Tests for the kernel timing model -- the regimes of Figure 5 -- and
its identity with the model recomputed per launch
(``tests/gpu/reference_timing.py``): the folded launch shape, and the
batchers' per-block maxima."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.gpu import (
    TESLA_C2050,
    DevicePool,
    DeviceSpec,
    KernelSpec,
    LaunchConfig,
    kernel_time,
    list_devices,
    occupancy,
    peak_playout_rate,
    playout_kernel_spec,
    sm_step_time,
)
from repro.serve import FusedBatcher, LaneBatcher, fused_kernel_spec
from repro.serve.scheduler import block_maxima
from repro.util.clock import Clock
from tests.gpu.reference_timing import (
    reference_chunk_seconds,
    reference_fused_seconds,
    reference_kernel_time,
)

KERNEL = playout_kernel_spec("reversi")


class TestSmStepTime:
    def test_latency_bound_floor(self):
        # 1 warp cannot beat the latency floor.
        t1 = sm_step_time(TESLA_C2050, KERNEL, 1)
        t2 = sm_step_time(TESLA_C2050, KERNEL, 2)
        assert t1 == t2  # both below the latency-hiding knee

    def test_issue_bound_growth(self):
        t8 = sm_step_time(TESLA_C2050, KERNEL, 8)
        t16 = sm_step_time(TESLA_C2050, KERNEL, 16)
        assert t16 == pytest.approx(2 * t8)

    def test_rejects_zero_warps(self):
        with pytest.raises(ValueError):
            sm_step_time(TESLA_C2050, KERNEL, 0)


class TestKernelTime:
    def test_shape_validation(self):
        with pytest.raises(ValueError, match="shape"):
            kernel_time(
                TESLA_C2050, KERNEL, LaunchConfig(4, 32), np.ones(3)
            )

    def test_components_positive(self):
        t = kernel_time(
            TESLA_C2050,
            KERNEL,
            LaunchConfig(4, 32),
            np.full(4, 60.0),
            transfer_bytes=1024,
        )
        assert t.launch_s > 0
        assert t.compute_s > 0
        assert t.transfer_s > 0
        assert t.total_s == t.launch_s + t.compute_s + t.transfer_s

    def test_no_transfer(self):
        t = kernel_time(
            TESLA_C2050, KERNEL, LaunchConfig(1, 32), np.array([60.0])
        )
        assert t.transfer_s == 0.0

    def test_longer_playouts_cost_more(self):
        cfg = LaunchConfig(14, 64)
        short = kernel_time(TESLA_C2050, KERNEL, cfg, np.full(14, 30.0))
        long = kernel_time(TESLA_C2050, KERNEL, cfg, np.full(14, 90.0))
        assert long.compute_s > short.compute_s


class TestThroughputRegimes:
    """The three regimes that shape the paper's Figure 5."""

    def test_rate_rises_with_threads_before_saturation(self):
        rates = [
            peak_playout_rate(
                TESLA_C2050, KERNEL, LaunchConfig(blocks, 64), 65.0
            )
            for blocks in (1, 4, 16, 64)
        ]
        assert rates == sorted(rates)
        assert rates[-1] > 10 * rates[0]

    def test_rate_saturates_past_device_capacity(self):
        # Past full residency extra blocks serialise into waves:
        # throughput stops improving (within a small tolerance).
        r1 = peak_playout_rate(
            TESLA_C2050, KERNEL, LaunchConfig(224, 64), 65.0
        )
        r2 = peak_playout_rate(
            TESLA_C2050, KERNEL, LaunchConfig(448, 64), 65.0
        )
        assert r2 < r1 * 1.25

    def test_calibrated_peak_envelope(self):
        """The paper's Fig. 5 peaks at roughly 8.5e5 playouts/s for
        leaf parallelism at 14336 threads; the calibrated model must
        land in the same decade and ballpark (0.3x..3x)."""
        rate = peak_playout_rate(
            TESLA_C2050, KERNEL, LaunchConfig(224, 64), 65.0
        )
        assert 2.5e5 < rate < 2.5e6

    def test_single_thread_is_terrible(self):
        """A 1-thread launch must be far slower than a CPU core
        (~1e4 playouts/s): SIMT latency without parallelism."""
        rate = peak_playout_rate(
            TESLA_C2050, KERNEL, LaunchConfig(1, 1), 65.0
        )
        assert rate < 1e3


# ---------------------------------------------------------------------------
# Identity with the per-launch recomputation (tests/gpu/reference_timing.py)
# ---------------------------------------------------------------------------

GAMES = ("reversi", "connect4", "tictactoe")

DEVICE = st.builds(
    DeviceSpec,
    name=st.just("drawn"),
    sm_count=st.integers(1, 16),
    warp_size=st.sampled_from([8, 16, 32]),
    max_threads_per_block=st.sampled_from([256, 512, 1024]),
    max_blocks_per_sm=st.integers(1, 8),
    max_threads_per_sm=st.sampled_from([1024, 1536, 2048]),
    max_warps_per_sm=st.integers(8, 64),
    registers_per_sm=st.sampled_from([16384, 32768, 65536]),
    shared_mem_per_sm=st.sampled_from([16384, 49152]),
    clock_hz=st.floats(5e8, 2e9),
    issue_per_cycle=st.sampled_from([0.5, 1.0, 2.0]),
    transfer_latency_s=st.floats(1e-6, 1e-5),
) | st.sampled_from(list_devices())


@st.composite
def kernels(draw):
    """A drawn kernel, a game's playout kernel or a fused one."""
    kind = draw(st.sampled_from(["drawn", "playout", "fused"]))
    if kind == "playout":
        return playout_kernel_spec(draw(st.sampled_from(GAMES)))
    if kind == "fused":
        games = draw(st.lists(st.sampled_from(GAMES), min_size=1, max_size=4))
        return fused_kernel_spec(games)
    cycles = draw(st.floats(100.0, 10000.0))
    return KernelSpec(
        name="drawn",
        cycles_per_step=cycles,
        latency_cycles_per_step=cycles * draw(st.floats(1.0, 8.0)),
        registers_per_thread=draw(st.integers(8, 64)),
        shared_mem_per_block=draw(st.sampled_from([0, 1024, 8192])),
        divergence_overhead=draw(st.floats(1.0, 1.5)),
    )


@st.composite
def launches(draw):
    """``(spec, kernel, config, steps)``: a launch that fits the
    device, with as many blocks as slots or fewer, or more (the heap),
    and non-negative integer step counts as a list or an array."""
    spec = draw(DEVICE)
    kernel = draw(kernels())
    tpb = draw(st.integers(1, spec.max_threads_per_block))
    try:
        occ = occupancy(spec, kernel, LaunchConfig(1, tpb))
    except ValueError:
        assume(False)
    slots = occ.blocks_per_sm * spec.sm_count
    if draw(st.booleans()):
        blocks = draw(st.integers(1, slots))
    else:
        blocks = draw(st.integers(slots + 1, 3 * slots + 1))
    steps = draw(st.lists(st.integers(0, 400), min_size=blocks, max_size=blocks))
    form = draw(st.sampled_from(["list", "int64", "float"]))
    if form != "list":
        steps = np.array(steps, dtype=np.int64 if form == "int64" else float)
    return spec, kernel, LaunchConfig(blocks, tpb), steps


class TestReferenceIdentity:
    @settings(max_examples=300, deadline=None)
    @given(launches(), st.sampled_from([0, 4, 4096]))
    def test_same_doubles_as_the_per_launch_model(self, launch, transfer):
        spec, kernel, config, steps = launch
        want = reference_kernel_time(spec, kernel, config, steps, transfer)
        # Twice: the first call folds the shape, the second reads it.
        for _ in range(2):
            got = kernel_time(spec, kernel, config, steps, transfer)
            assert got == want
            assert got.total_s == want.total_s

    @settings(max_examples=100, deadline=None)
    @given(launches(), st.data())
    def test_bad_shapes_and_negative_steps_still_raise(self, launch, data):
        spec, kernel, config, steps = launch
        steps = np.asarray(steps, dtype=np.int64)
        bad = data.draw(st.sampled_from(["short", "long", "2d", "negative"]))
        if bad == "short":
            steps = steps[:-1]
        elif bad == "long":
            steps = np.append(steps, 1)
        elif bad == "2d":
            steps = steps.reshape(1, -1)
        else:
            steps = steps.copy()
            steps[data.draw(st.integers(0, len(steps) - 1))] = -1
        for body in (kernel_time, reference_kernel_time):
            with pytest.raises(ValueError) as raised:
                body(spec, kernel, config, steps)
            message = str(raised.value)
            assert ("shape" in message) == (bad != "negative")
            assert ("non-negative" in message) == (bad == "negative")

    def test_a_grid_that_cannot_fit_still_raises(self):
        heavy = KernelSpec(name="heavy", registers_per_thread=255)
        config = LaunchConfig(2, 1024)
        for body in (kernel_time, reference_kernel_time):
            with pytest.raises(ValueError, match="cannot fit"):
                body(TESLA_C2050, heavy, config, [1, 2])


@st.composite
def fused_demands(draw):
    """Finish steps by game: one to three games' lane demand, up to
    several blocks each, in one fused launch."""
    tpb = FusedBatcher.FUSED_TPB
    games = draw(
        st.lists(st.sampled_from(GAMES), min_size=1, max_size=3, unique=True)
    )
    return {
        game: np.array(
            draw(
                st.lists(st.integers(0, 120), min_size=1, max_size=6 * tpb)
            ),
            dtype=np.int32,
        )
        for game in games
    }


class TestFusedDuration:
    @settings(max_examples=150, deadline=None)
    @given(fused_demands(), st.sampled_from(list_devices()))
    def test_per_block_maxima_equal_the_padded_grid(self, steps, spec):
        tpb = FusedBatcher.FUSED_TPB
        batcher = FusedBatcher(DevicePool((TESLA_C2050,), Clock()), 5)
        maxima = {game: block_maxima(s, tpb) for game, s in steps.items()}
        segments = [(game, 0, len(s)) for game, s in steps.items()]
        kernel = fused_kernel_spec(list(steps))
        want = reference_fused_seconds(spec, kernel, segments, steps, tpb)
        duration = batcher._fused_duration(
            maxima, sum(len(s) for s in steps.values())
        )
        assert duration(spec) == want
        assert duration(spec) == want  # a retried attempt

    @settings(max_examples=100, deadline=None)
    @given(
        st.lists(st.integers(0, 120), min_size=1, max_size=700),
        st.sampled_from(list_devices()),
        st.sampled_from(GAMES),
    )
    def test_unfused_chunk_equals_the_padded_grid(self, steps, spec, game):
        steps = np.array(steps, dtype=np.int32)
        batcher = LaneBatcher(DevicePool((TESLA_C2050,), Clock()), 5)
        duration = batcher._duration_for(game, steps, len(steps))
        want = reference_chunk_seconds(
            spec, playout_kernel_spec(game), steps, len(steps)
        )
        assert duration(spec) == want
        assert duration(spec) == want
