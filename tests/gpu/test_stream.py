"""Tests for asynchronous streams against the virtual clock."""

import pytest

from repro.gpu import Stream, StreamError
from repro.util.clock import Clock


@pytest.fixture
def clock():
    return Clock()


@pytest.fixture
def stream(clock):
    return Stream(clock)


class TestLaunch:
    def test_launch_does_not_block_host(self, clock, stream):
        stream.launch(1.0)
        assert clock.now == 0.0  # host time unchanged

    def test_event_completion_time(self, clock, stream):
        ev = stream.launch(2.5)
        assert ev.done_at == 2.5

    def test_in_order_queueing(self, clock, stream):
        stream.launch(1.0)
        ev2 = stream.launch(1.0)
        assert ev2.done_at == 2.0  # waits for the first kernel

    def test_launch_after_idle_gap(self, clock, stream):
        stream.launch(1.0)
        clock.advance(5.0)
        ev = stream.launch(1.0)
        assert ev.done_at == 6.0  # starts now, not back-to-back

    def test_negative_duration_rejected(self, stream):
        with pytest.raises(StreamError):
            stream.launch(-1.0)


class TestQuerySync:
    def test_query_before_and_after(self, clock, stream):
        ev = stream.launch(1.0)
        assert not stream.query(ev)
        clock.advance(0.5)
        assert not stream.query(ev)
        clock.advance(0.6)
        assert stream.query(ev)

    def test_synchronize_advances_clock(self, clock, stream):
        ev = stream.launch(3.0, payload="result")
        assert stream.synchronize(ev) == "result"
        assert clock.now == 3.0

    def test_synchronize_after_completion_is_noop(self, clock, stream):
        ev = stream.launch(1.0)
        clock.advance(10.0)
        stream.synchronize(ev)
        assert clock.now == 10.0

    def test_synchronize_all(self, clock, stream):
        stream.launch(1.0)
        stream.launch(2.0)
        stream.synchronize_all()
        assert clock.now == 3.0

    def test_busy_and_pending(self, clock, stream):
        assert not stream.busy
        stream.launch(1.0)
        stream.launch(1.0)
        assert stream.busy
        assert stream.pending == 2
        clock.advance(1.5)
        assert stream.pending == 1
        clock.advance(1.0)
        assert not stream.busy
        assert stream.pending == 0


class TestHybridPattern:
    """The paper's Figure 4 control flow: CPU works while GPU runs."""

    def test_cpu_work_overlaps_kernel(self, clock, stream):
        ev = stream.launch(1.0, payload=42)
        cpu_iterations = 0
        while not stream.query(ev):
            clock.advance(0.125)  # one CPU-side MCTS iteration
            cpu_iterations += 1
        assert cpu_iterations == 8  # exactly (0.125 is float-exact)
        assert stream.synchronize(ev) == 42
        # Total elapsed = kernel time, not kernel + CPU time.
        assert clock.now == pytest.approx(1.0)


class TestRetention:
    """A stream keeps only its incomplete events: ``pending`` reads as
    if every event were kept, and memory stays bounded however many
    kernels a long-lived device launches."""

    def test_pending_matches_every_event_kept(self, clock, stream):
        kept = []
        for i in range(1000):
            kept.append(stream.launch(0.25 * (i % 3), payload=i))
            clock.advance(0.5 if i % 5 == 0 else 0.25)
            assert stream.pending == sum(
                1 for e in kept if not stream.query(e)
            )
            assert len(stream._events) == stream.pending <= 3
        stream.synchronize_all()
        assert stream.pending == 0

    def test_virtual_gpu_stream_stays_bounded(self):
        from repro.gpu import TESLA_C2050, LaunchConfig, VirtualGpu
        from repro.games import TicTacToe

        game = TicTacToe()
        gpu = VirtualGpu(TESLA_C2050, Clock(), "tictactoe", seed=1)
        config = LaunchConfig(1, 32)
        state = game.initial_state()
        for i in range(1000):
            if i % 2:
                gpu.run_playouts([state], config)
            else:
                gpu.stream.synchronize(gpu.launch_async([state], config))
            assert len(gpu.stream._events) <= 1
        assert gpu.stream.pending == 0
        assert gpu.stats.kernels_launched == 1000

    def test_device_pool_streams_stay_bounded(self):
        from repro.gpu import TESLA_C2050, DevicePool

        clock = Clock()
        pool = DevicePool((TESLA_C2050,) * 2, clock)
        leases = []
        for i in range(1000):
            leases.append(pool.launch(f"r{i}", 1e-3))
            if i % 4 == 3:
                clock.advance(2e-3)
            streams = [slot.stream for slot in pool._slots]
            assert sum(s.pending for s in streams) == sum(
                1 for lease in leases if lease.event.done_at > clock.now
            )
            assert all(len(s._events) <= 3 for s in streams)
