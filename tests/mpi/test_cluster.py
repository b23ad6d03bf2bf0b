"""Tests for the simulated MPI cluster."""

import numpy as np
import pytest

from repro.mpi import MpiCluster, TSUBAME_IB
from repro.mpi.cluster import MpiError


@pytest.fixture
def cluster():
    return MpiCluster(4, TSUBAME_IB, seed=1)


class TestConstruction:
    def test_rejects_zero_size(self):
        with pytest.raises(MpiError):
            MpiCluster(0, TSUBAME_IB)

    def test_rank_contexts_have_distinct_seeds(self, cluster):
        seeds = cluster.run_on_ranks(lambda ctx: ctx.seed)
        assert len(set(seeds)) == 4

    def test_rank_ids(self, cluster):
        ranks = cluster.run_on_ranks(lambda ctx: (ctx.rank, ctx.size))
        assert ranks == [(0, 4), (1, 4), (2, 4), (3, 4)]


class TestRankLocalTime:
    def test_ranks_charge_independently(self, cluster):
        def work(ctx):
            ctx.clock.advance(float(ctx.rank))
            return ctx.clock.now

        times = cluster.run_on_ranks(work)
        assert times == [0.0, 1.0, 2.0, 3.0]


class TestCollectives:
    def test_bcast_copies_value(self, cluster):
        out = cluster.bcast({"state": 42}, root=0)
        assert len(out) == 4
        assert all(v == {"state": 42} for v in out)

    def test_bcast_charges_time(self, cluster):
        cluster.bcast(np.zeros(1000), root=0)
        assert all(c.now > 0 for c in cluster.clocks)

    def test_reduce_sum(self, cluster):
        out = cluster.reduce([1, 2, 3, 4], op="sum")
        assert out == 10

    def test_reduce_arrays(self, cluster):
        values = [np.full(3, r) for r in range(4)]
        out = cluster.reduce(values, op="sum")
        np.testing.assert_array_equal(out, [6, 6, 6])

    def test_reduce_max_min(self, cluster):
        assert cluster.reduce([5, 2, 9, 1], op="max") == 9
        assert cluster.reduce([5, 2, 9, 1], op="min") == 1

    def test_reduce_wrong_count(self, cluster):
        with pytest.raises(MpiError, match="one value per rank"):
            cluster.reduce([1, 2], op="sum")

    def test_reduce_unknown_op(self, cluster):
        with pytest.raises(MpiError, match="unknown reduce op"):
            cluster.reduce([1, 2, 3, 4], op="xor")

    def test_allreduce_gives_everyone_result(self, cluster):
        out = cluster.allreduce([1, 1, 1, 1], op="sum")
        assert out == [4, 4, 4, 4]

    def test_allreduce_costs_more_than_reduce(self):
        a = MpiCluster(8, TSUBAME_IB)
        b = MpiCluster(8, TSUBAME_IB)
        a.reduce([np.zeros(100)] * 8, op="sum")
        b.allreduce([np.zeros(100)] * 8, op="sum")
        assert b.elapsed > a.elapsed

    def test_bad_root(self, cluster):
        with pytest.raises(MpiError, match="out of range"):
            cluster.bcast(1, root=7)

    def test_collective_waits_for_slowest_rank(self, cluster):
        cluster.clocks[2].advance(10.0)
        cluster.bcast(1, root=0)
        assert all(c.now >= 10.0 for c in cluster.clocks)


class TestScaling:
    def test_collective_cost_grows_logarithmically(self):
        elapsed = []
        for size in (2, 4, 16):
            c = MpiCluster(size, TSUBAME_IB)
            c.bcast(np.zeros(1000))
            elapsed.append(c.elapsed)
        assert elapsed[0] < elapsed[1] < elapsed[2]
        # 16 ranks is 4 rounds vs 1 round for 2 ranks: exactly 4x here.
        assert elapsed[2] == pytest.approx(4 * elapsed[0])


@pytest.mark.faults
class TestDroppedMessages:
    """Lossy vote aggregation via an attached fault injector."""

    def _lossy(self, size=4, rate=1.0, seed=1):
        from repro.faults import FaultInjector, FaultPlan

        injector = FaultInjector(FaultPlan(mpi_drop_rate=rate, seed=seed))
        return MpiCluster(size, TSUBAME_IB, seed=1, injector=injector)

    def test_reduce_drops_non_root_contributions(self):
        cluster = self._lossy(rate=1.0)
        total = cluster.reduce([1, 10, 100, 1000], op="sum", root=0)
        # Every non-root contribution dropped; the root's survives.
        assert total == 1
        assert cluster.dropped == 3

    def test_reduce_root_contribution_never_dropped(self):
        cluster = self._lossy(rate=1.0)
        total = cluster.reduce([1, 10, 100, 1000], op="sum", root=2)
        assert total == 100

    def test_allreduce_drops_contributions(self):
        cluster = self._lossy(rate=1.0)
        results = cluster.allreduce([1, 10, 100, 1000], op="sum")
        assert results == [1, 1, 1, 1]
        assert cluster.dropped == 3

    def test_drops_deterministic_under_seed(self):
        def run():
            cluster = self._lossy(rate=0.5, seed=9)
            totals = [
                cluster.reduce([1, 2, 3, 4], op="sum")
                for _ in range(10)
            ]
            return totals, cluster.dropped

        assert run() == run()

    def test_zero_rate_drops_nothing(self):
        cluster = self._lossy(rate=0.0)
        assert cluster.reduce([1, 2, 3, 4], op="sum") == 10
        assert cluster.dropped == 0

    def test_no_injector_unchanged(self, cluster):
        assert cluster.injector is None
        assert cluster.reduce([1, 2, 3, 4], op="sum") == 10
        assert cluster.dropped == 0

    def test_timing_unaffected_by_drops(self):
        lossless = MpiCluster(4, TSUBAME_IB, seed=1)
        lossy = self._lossy(rate=1.0)
        lossless.reduce([1, 2, 3, 4], op="sum")
        lossy.reduce([1, 2, 3, 4], op="sum")
        assert lossy.elapsed == lossless.elapsed
