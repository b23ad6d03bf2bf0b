"""Integration tests: each experiment runs end-to-end on a tiny config
and its output satisfies the paper's *structural* expectations (shape,
labels, monotonicity where cheap to check).  A config of ``CASES``
(``conftest.py``) is read through the :func:`tiny` fixture, so these
checks and ``test_golden_tables.py``'s golden compare read one run."""

from repro.harness import Fig5Config, Scheme, run_fig5
from repro.harness.ablations import run_seq_part_ablation


class TestFig5:
    def test_tiny_run(self, tiny):
        res = tiny("fig5_speed")
        assert set(res.series) == {s.label for s in res.config.schemes}
        for values in res.series.values():
            assert len(values) == 2
            assert all(v > 0 for v in values)

    def test_throughput_rises_with_threads(self):
        cfg = Fig5Config(
            thread_counts=(32, 1024),
            schemes=(Scheme("leaf", 64),),
            iterations_per_point=2,
        )
        res = run_fig5(cfg)
        lo, hi = res.series["leaf(bs=64)"]
        assert hi > 5 * lo

    def test_render_contains_all_points(self):
        cfg = Fig5Config(thread_counts=(32,), iterations_per_point=1)
        out = run_fig5(cfg).render()
        assert "threads" in out and "leaf(bs=64)" in out


class TestFig6:
    def test_tiny_run(self, tiny):
        res = tiny("fig6_winratio")
        ratios = res.win_ratio["block(bs=32)"]
        assert len(ratios) == 1
        assert 0.0 <= ratios[0] <= 1.0
        lo, hi = res.intervals["block(bs=32)"][0]
        assert lo <= ratios[0] <= hi
        assert "Figure 6" in res.render()


class TestFig7:
    def test_tiny_run(self, tiny):
        res = tiny("fig7_gpu_vs_cpus")
        assert set(res.series) == {"2 cpus", "1 GPU"}
        for series in res.series.values():
            assert series.shape == (60,)
        finals = res.final_scores()
        assert all(-64 <= v <= 64 for v in finals.values())
        assert "Figure 7" in res.render()


class TestFig8:
    def test_tiny_run(self, tiny):
        res = tiny("fig8_hybrid")
        assert set(res.points) == {"GPU", "GPU + CPU"}
        assert set(res.depth) == {"GPU", "GPU + CPU"}
        # hybrid must reach at least the GPU-only depth on average
        assert (
            res.depth["GPU + CPU"].mean() >= res.depth["GPU"].mean()
        )
        assert "Figure 8" in res.render()


class TestFig9:
    def test_tiny_run(self, tiny):
        res = tiny("fig9_multigpu")
        assert res.throughput[2] > res.throughput[1]
        assert set(res.point_difference) == {1, 2}
        assert "Figure 9" in res.render()


class TestGeneralization:
    def test_tiny_run(self, tiny):
        res = tiny("exp_generalization")
        assert set(res.win_ratio) == {
            ("tictactoe", "block"),
            ("tictactoe", "leaf"),
        }
        assert "Generalization" in res.render()


class TestAblations:
    def test_block_size(self, tiny):
        res = tiny("abl_block_size")
        assert set(res.win_ratio) == {32, 64}
        assert "block size" in res.render()

    def test_seq_part_monotone(self):
        res = run_seq_part_ablation(block_counts=(1, 16, 112))
        assert res.seq_fraction[0] < res.seq_fraction[1]
        assert res.seq_fraction[1] <= res.seq_fraction[2] + 1e-9
        assert "sequential" in res.render()

    def test_vote_policy(self, tiny):
        res = tiny("abl_vote_policy")
        assert set(res.win_ratio) == {"max_visits"}

    def test_ucb(self, tiny):
        res = tiny("abl_ucb_c")
        assert set(res.win_ratio) == {1.0}
