"""Bit-identity and packing wall for cross-tenant kernel fusion.

Fusion is a *launch geometry* optimisation, never a results change:

* the same submitted workload must produce identical per-request
  results fused vs unfused (and under ``playout="compiled"``);
* arbitrary tenant interleavings must round-trip pad -> fuse ->
  scatter with no cross-tenant leakage, no dropped or duplicated
  lanes, and a drained device pool after every schedule (Hypothesis);
* the integrity screen must see every fused readback exactly once per
  tenant slice per delivery attempt;
* crash -> recover with fused compiled runs completes exactly once.
"""

from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.faults import FaultInjector, FaultPlan
from repro.games import make_game
from repro.gpu import TESLA_C2050, DevicePool
from repro.gpu.kernel import playout_kernel_spec
from repro.integrity import IntegrityPolicy, IntegrityState
from repro.serve import (
    COMPLETED,
    FusedBatcher,
    LaneBatcher,
    ResilientLauncher,
    SearchRequest,
    SearchService,
    ServiceCrash,
    TERMINAL_STATUSES,
    WorkloadConfig,
    fused_kernel_spec,
    make_workload,
    read_journal,
)
from repro.serve import scheduler
from repro.util.clock import Clock

SEED = 17


def make_pool(n_devices=2):
    return DevicePool((TESLA_C2050,) * n_devices, Clock())


@contextmanager
def lane_cap(cap):
    """Rollover at test size: the fused-launch lane cap set to
    ``cap`` instead of 65 536 for the ``with`` block."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(scheduler, "MAX_FUSED_LANES", cap)
        yield


def states_for(game_name, n):
    return [make_game(game_name).initial_state()] * n


def record_key(record):
    """Everything a tenant observes about its request's outcome."""
    result = record.result
    if result is None:
        return (record.status, None)
    return (
        record.status,
        result.move,
        tuple(sorted(result.stats.items())),
        result.iterations,
        result.simulations,
    )


def run_service(**kwargs):
    defaults = dict(seed=7, n_devices=2)
    defaults.update(kwargs)
    service = SearchService(**defaults)
    service.submit_all(
        make_workload(WorkloadConfig(n_requests=24, seed=2011))
    )
    records = service.run()
    return service, records


class TestFusedServiceIdentity:
    def test_fused_matches_unfused_per_request(self):
        fused_svc, fused = run_service(fusion=True)
        plain_svc, plain = run_service(fusion=False)
        assert [r.request.request_id for r in fused] == [
            r.request.request_id for r in plain
        ]
        for rf, rp in zip(fused, plain):
            assert record_key(rf) == record_key(rp)
        # The identical results were produced by a very different
        # launch geometry: fewer, fused launches.
        fr, pr = fused_svc.report(), plain_svc.report()
        assert fr.fused_launches > 0
        assert pr.fused_launches == 0
        assert fr.kernel_launches < pr.kernel_launches

    @pytest.mark.compiled
    def test_fused_compiled_matches_fused_numpy(self):
        _, compiled = run_service(fusion=True, playout="compiled")
        _, numpy_ = run_service(fusion=True, playout="numpy")
        for rc, rn in zip(compiled, numpy_):
            assert record_key(rc) == record_key(rn)

    def test_report_renders_fusion_metrics(self):
        service, _ = run_service(fusion=True)
        report = service.report()
        assert report.fused_launches > 0
        assert report.mean_tenants_per_launch >= 1.0
        rendered = report.render()
        assert "fused launches" in rendered
        assert "mean tenants/launch" in rendered

    def test_unfused_report_omits_fusion_rows(self):
        service, _ = run_service(fusion=False)
        assert "fused launches" not in service.report().render()


# ---------------------------------------------------------------------------
# Fusion packing properties (Hypothesis)
# ---------------------------------------------------------------------------

#: Fast vectorised games for property examples (reversi is too slow to
#: playout hundreds of times per example).
PROP_GAMES = ("tictactoe", "connect4")

tenants_strategy = st.lists(
    st.tuples(
        st.sampled_from(PROP_GAMES),
        st.integers(min_value=1, max_value=50),
    ),
    min_size=1,
    max_size=8,
)


def build_demand(tenants):
    """Per-game merged states + per-tenant spans, in tenant order --
    the same layout the service builds each tick."""
    demand: dict[str, list] = {}
    spans: dict[str, tuple[str, int, int]] = {}
    for i, (game, lanes) in enumerate(tenants):
        merged = demand.setdefault(game, [])
        lo = len(merged)
        merged.extend(states_for(game, lanes))
        spans[f"t{i}"] = (game, lo, lo + lanes)
    return demand, spans


class TestFusionPackingProperties:
    @settings(max_examples=25, deadline=None)
    @given(
        tenants=tenants_strategy,
        cap=st.sampled_from([128, 256, 1 << 16]),
    )
    def test_pack_fuse_scatter_round_trips(
        self, tenants, cap
    ):
        """Arbitrary tenant interleavings: fused answers equal the
        unfused batcher's bit for bit (no cross-tenant leakage, no
        dropped or duplicated lanes), every launch respects the lane
        cap, and the pool drains after synchronising every lease."""
        demand, spans = build_demand(tenants)
        pool = make_pool()
        fused = FusedBatcher(pool, SEED)
        with lane_cap(cap):
            got, records = fused.execute_demand(
                {g: list(s) for g, s in demand.items()}, spans
            )
        ref, _ = LaneBatcher(make_pool(), SEED).execute_demand(
            {g: list(s) for g, s in demand.items()}
        )
        assert got == ref
        # Lane conservation, per game and per launch.
        for game, merged in demand.items():
            assert len(got[game]) == len(merged)
        total = sum(len(s) for s in demand.values())
        assert sum(r.lanes for r in records) == total
        for r in records:
            assert 0 < r.lanes <= cap
            covered = sum(hi - lo for _, lo, hi in r.segments)
            assert covered == r.lanes
        # Every tenant's span is covered by exactly one launch's
        # segments (lanes appear once across all launches).
        for game, merged in demand.items():
            seen = np.zeros(len(merged), dtype=np.int64)
            for r in records:
                for sgame, lo, hi in r.segments:
                    if sgame == game:
                        seen[lo:hi] += 1
            assert (seen == 1).all()
        for r in records:
            pool.synchronize(r.lease)
        pool.assert_drained()

    @settings(max_examples=25, deadline=None)
    @given(tenants=tenants_strategy)
    def test_fused_geometry_counters_consistent(self, tenants):
        demand, spans = build_demand(tenants)
        batcher = FusedBatcher(make_pool(), SEED)
        _, records = batcher.execute_demand(demand, spans)
        assert batcher.fused_launches == len(records)
        assert batcher.tenant_slices >= len(records)
        # Pad waste is exactly the pow2 block padding: every launch's
        # real+pad lane count is a power-of-two multiple of the block.
        tpb = FusedBatcher.FUSED_TPB
        total_real = sum(r.lanes for r in records)
        padded_total = total_real + batcher.pad_lanes
        assert padded_total % tpb == 0
        assert batcher.pad_lanes >= 0


class TestFusedGeometry:
    def test_single_lane_pads_to_one_block(self):
        batcher = FusedBatcher(make_pool(), SEED)
        batcher.execute_demand({"tictactoe": states_for("tictactoe", 1)})
        # 1 real lane -> 1 block -> already a power of two: pad is the
        # rest of the 128-wide block.
        assert batcher.pad_lanes == FusedBatcher.FUSED_TPB - 1

    def test_three_blocks_pad_to_four(self):
        batcher = FusedBatcher(make_pool(), SEED)
        batcher.execute_demand(
            {"tictactoe": states_for("tictactoe", 300)}
        )
        # 300 lanes -> 3 blocks of 128 -> padded to 4 blocks.
        assert batcher.pad_lanes == 4 * 128 - 300

    def test_lane_cap_splits_into_multiple_fused_launches(self):
        demand = {
            "tictactoe": states_for("tictactoe", 300),
            "connect4": states_for("connect4", 100),
        }
        capped = FusedBatcher(make_pool(), SEED)
        with lane_cap(128):
            got, records = capped.execute_demand(
                {g: list(s) for g, s in demand.items()}
            )
        assert len(records) == 4  # 128 + 128 + 44 | 100 lanes
        assert all(r.lanes <= 128 for r in records)
        ref, _ = LaneBatcher(make_pool(), SEED).execute_demand(demand)
        assert got == ref

    def test_fused_kernel_spec_single_game_is_exact(self):
        assert fused_kernel_spec(["reversi"]) == playout_kernel_spec(
            "reversi"
        )

    def test_fused_kernel_spec_merges_worst_case(self):
        games = ["tictactoe", "reversi", "connect4"]
        fused = fused_kernel_spec(games)
        assert fused.name == "fused_playout"
        for game in games:
            spec = playout_kernel_spec(game)
            assert fused.cycles_per_step >= spec.cycles_per_step
            assert (
                fused.registers_per_thread >= spec.registers_per_thread
            )
            assert (
                fused.shared_mem_per_block >= spec.shared_mem_per_block
            )


def reference_tenant_slices(segments, spans):
    """`_tenant_slices` as it was written first: every span against
    every segment of the group."""
    slices = []
    for game, lo, hi in spans.values():
        overlap = [
            (game, max(lo, slo), min(hi, shi))
            for sgame, slo, shi in segments
            if sgame == game and min(hi, shi) > max(lo, slo)
        ]
        if overlap:
            olo = min(o[1] for o in overlap)
            ohi = max(o[2] for o in overlap)
            slices.append((game, olo, ohi))
    return slices


class TestTenantSlices:
    @settings(max_examples=100, deadline=None)
    @given(
        lane_counts=st.lists(st.integers(1, 700), min_size=1, max_size=4),
        cuts=st.lists(st.integers(0, 700), max_size=12),
        # 300: pieces are cut at 256, so two of them can share a group.
        cap=st.sampled_from([128, 300, 512, 1 << 16]),
    )
    def test_matches_reference_on_generated_layouts(
        self, lane_counts, cuts, cap
    ):
        """Several games, demand rolling over into further groups,
        tenant spans straddling piece and group boundaries, spans of
        games outside the group: same slices in the same tenant order
        as the all-pairs reference."""
        games = ["tictactoe", "connect4", "reversi", "breakthrough"]
        lane_counts = dict(zip(games, lane_counts))
        # Tenants: each game's lanes cut at the drawn points.
        spans = {}
        for game, n in lane_counts.items():
            bounds = sorted({0, n, *(c for c in cuts if c < n)})
            for lo, hi in zip(bounds, bounds[1:]):
                spans[game, lo] = (game, lo, hi)
        batcher = FusedBatcher(make_pool(), SEED)
        with lane_cap(cap):
            groups = batcher._segments(lane_counts)
        if cap < max(lane_counts.values()):
            assert len(groups) > 1
        for segments in groups:
            assert batcher._tenant_slices(
                segments, spans
            ) == reference_tenant_slices(segments, spans)

    def test_span_straddling_two_pieces_of_one_group(self):
        # Pieces are cut at 256 lanes, groups hold 300: reversi's
        # [0, 256) and [256, 290) share one, and the tenant on
        # [250, 270) gets one slice across them.
        batcher = FusedBatcher(make_pool(), SEED)
        with lane_cap(300):
            (segments,) = batcher._segments({"reversi": 290})
        assert len(segments) == 2
        spans = {"a": ("reversi", 0, 250), "b": ("reversi", 250, 270)}
        assert batcher._tenant_slices(segments, spans) == [
            ("reversi", 0, 250), ("reversi", 250, 270)
        ]

    def test_without_spans_each_segment_is_a_slice(self):
        batcher = FusedBatcher(make_pool(), SEED)
        segments = [("tictactoe", 0, 5), ("connect4", 0, 3)]
        assert batcher._tenant_slices(segments, None) == segments


# ---------------------------------------------------------------------------
# Integrity: fused readbacks screened exactly once per tenant
# ---------------------------------------------------------------------------

@pytest.mark.integrity
class TestFusedIntegrity:
    def make_guarded_batcher(self, n_tenants_expected=None):
        pool = make_pool()
        injector = FaultInjector(
            FaultPlan.parse("corrupt=0.0:bitflip,seed=3")
        )
        launcher = ResilientLauncher(pool, injector=injector)
        guard = IntegrityState(
            IntegrityPolicy.coerce(None), injector, 0
        )
        batcher = FusedBatcher(
            pool, SEED, launcher=launcher, integrity=guard
        )
        return batcher, guard

    def test_screen_called_once_per_tenant_slice(self, monkeypatch):
        batcher, guard = self.make_guarded_batcher()
        calls = []
        real_screen = guard.screen_answers

        def counting(answers):
            calls.append(len(answers))
            return real_screen(answers)

        monkeypatch.setattr(guard, "screen_answers", counting)
        tenants = [
            ("tictactoe", 10),
            ("connect4", 7),
            ("tictactoe", 5),
            ("connect4", 20),
            ("tictactoe", 1),
        ]
        demand, spans = build_demand(tenants)
        _, records = batcher.execute_demand(demand, spans)
        # Zero corrupt rate -> one delivery attempt per launch -> the
        # screen ran exactly once per tenant slice, sized per tenant.
        assert len(records) == 1
        assert len(calls) == len(tenants)
        assert sorted(calls) == sorted(n for _, n in tenants)
        assert batcher.tenant_slices == len(tenants)

    def test_corrupt_fused_run_completes_with_consistent_counters(self):
        service, records = run_service(
            fusion=True,
            faults="corrupt=0.3:bitflip,seed=5",
            integrity={"validate_results": True},
        )
        assert all(r.status in TERMINAL_STATUSES for r in records)
        guard = service.integrity_state
        # Fused screening rejects a delivery when *any* tenant slice
        # fails, so per-slice detections dominate per-delivery rejects.
        assert guard.detected >= service.launcher.rejected_results
        assert service.launcher.rejected_results > 0
        assert guard.dropped_batches <= service.batcher.launch_count

    def test_corrupt_fused_matches_corrupt_unfused_detection_path(self):
        """Same fault plan, fused vs unfused: both runs terminate and
        both screens catch corruption (the geometry changes *when*
        injector draws happen, so counters differ -- but the defense
        works under either geometry)."""
        fused_svc, fused = run_service(
            fusion=True, faults="corrupt=0.4:bitflip,seed=9"
        )
        plain_svc, plain = run_service(
            fusion=False, faults="corrupt=0.4:bitflip,seed=9"
        )
        for recs in (fused, plain):
            assert all(r.status in TERMINAL_STATUSES for r in recs)
        assert fused_svc.integrity_state.detected > 0
        assert plain_svc.integrity_state.detected > 0


# ---------------------------------------------------------------------------
# Crash -> recover with fused compiled runs
# ---------------------------------------------------------------------------

BUDGET = 4e-4


def crash_requests():
    engines = ["sequential", "root:2", "tree:2@arena", "leaf:1x32"]
    return [
        SearchRequest(
            request_id=f"r{i}",
            game="tictactoe",
            engine=eng,
            budget_s=BUDGET,
            seed=100 + i,
        )
        for i, eng in enumerate(engines)
    ]


@pytest.mark.compiled
@pytest.mark.faults
class TestFusedCompiledRecovery:
    def test_crash_then_recover_completes_exactly_once(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        service = SearchService(
            seed=5,
            n_devices=2,
            journal=path,
            checkpoint_every=5,
            faults="crash=tick:20",
            playout="compiled",
            fusion=True,
        )
        service.submit_all(crash_requests())
        with pytest.raises(ServiceCrash):
            service.run()
        pre_crash = {
            r.request.request_id: record_key(r)
            for r in service._records
            if r.status == COMPLETED
        }

        recovered = SearchService.recover(
            path,
            seed=5,
            n_devices=2,
            checkpoint_every=5,
            playout="compiled",
            fusion=True,
        )
        records = recovered.run()
        assert all(r.status == COMPLETED for r in records)
        state = read_journal(path)
        assert set(state.completions) == set(state.requests)
        by_id = {r.request.request_id: r for r in records}
        for rid, key in pre_crash.items():
            assert record_key(by_id[rid]) == key

    def test_recovery_is_deterministic(self, tmp_path):
        """Recovering the same journal twice (fused + compiled) yields
        bit-identical per-request results: the resume path is as
        deterministic as a fresh run."""
        path = tmp_path / "journal.jsonl"
        service = SearchService(
            seed=5,
            n_devices=2,
            journal=path,
            checkpoint_every=3,
            faults="crash=tick:10",
            playout="compiled",
            fusion=True,
        )
        service.submit_all(crash_requests())
        with pytest.raises(ServiceCrash):
            service.run()
        copy = tmp_path / "journal_copy.jsonl"
        copy.write_bytes(path.read_bytes())

        def recover(journal):
            svc = SearchService.recover(
                journal,
                seed=5,
                n_devices=2,
                checkpoint_every=3,
                playout="compiled",
                fusion=True,
            )
            return {
                r.request.request_id: record_key(r) for r in svc.run()
            }

        first = recover(path)
        second = recover(copy)
        assert first == second
        assert all(key[0] == COMPLETED for key in first.values())
