"""Tests for the virtual CPU cost model."""

import pytest

from repro.cpu import XEON_X5670, CpuCostModel, cpu_cost_model
from repro.cpu.costmodel import FREE_CPU


class TestRegistry:
    def test_lookup(self):
        assert cpu_cost_model("xeon_x5670") is XEON_X5670
        assert cpu_cost_model("free") is FREE_CPU

    def test_unknown(self):
        with pytest.raises(ValueError, match="unknown cpu cost model"):
            cpu_cost_model("epyc")


class TestCosts:
    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            CpuCostModel(name="bad", expand_s=-1.0)

    def test_iteration_decomposition(self):
        m = XEON_X5670
        t = m.iteration_time(depth=10, playout_plies=50)
        assert t == pytest.approx(
            m.fixed_per_iteration_s
            + m.selection_time(10)
            + m.expand_s
            + m.playout_time(50)
            + m.backprop_time(10)
        )

    def test_iteration_is_its_parts_to_the_last_bit(self):
        """``iteration_time`` writes the sum out; virtual clocks (and
        every golden trace) need it equal to the composed methods
        exactly, clamped negatives included."""
        m = XEON_X5670
        for depth in range(-2, 40):
            for plies in (-3, 0, 1, 9, 31, 60, 61, 1 << 31):
                assert m.iteration_time(depth, plies) == (
                    m.fixed_per_iteration_s
                    + m.selection_time(depth)
                    + m.expand_s
                    + m.playout_time(plies)
                    + m.backprop_time(depth)
                )

    def test_negative_depth_clamped(self):
        assert XEON_X5670.selection_time(-5) == 0.0
        assert XEON_X5670.backprop_time(-1) == 0.0
        assert XEON_X5670.playout_time(-1) == 0.0

    def test_calibration_envelope(self):
        """One simulated Xeon core sustains ~1e4 Reversi iterations/s
        at mid-game depth (the paper-era rate; DESIGN.md section 5)."""
        t = XEON_X5670.iteration_time(depth=12, playout_plies=50)
        rate = 1.0 / t
        assert 5e3 < rate < 5e4

    def test_tree_control_excludes_playout(self):
        m = XEON_X5670
        assert m.tree_control_time(10) < m.iteration_time(10, 50)
        assert m.tree_control_time(10) == pytest.approx(
            m.selection_time(10)
            + m.expand_s
            + m.backprop_time(10)
            + m.tree_kernel_overhead_s
        )

    def test_free_model_charges_nothing(self):
        assert FREE_CPU.iteration_time(10, 50) == 0.0
        assert FREE_CPU.tree_control_time(10) == 0.0
