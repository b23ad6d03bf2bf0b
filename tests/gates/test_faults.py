"""Fault-injection gates: resilient serving under a fault-rate sweep.

The resilience layer's acceptance claims, measured end-to-end on the
64-request mixed workload (no deadlines -- resilience, not deadline
pressure, is under test):

* at a 10% per-launch fault rate the workload completes 100% -- some
  requests degraded (lost playout batches, reduced effective budget),
  zero errors;
* at fault rate 0 the resilient service is a strict no-op -- the run
  fingerprint is identical to a service built without a fault plan;
* injection is deterministic under the plan seed: identical retry
  counts, placements and metrics across runs.

The sweep reports completion rate, p50/p95 latency, retry overhead and
injected-fault counts at each fault rate.  A second sweep measures
crash recovery: a journalled service is killed at a planned tick and
recovered, and MTTR (the recovered run's virtual time to finish the
interrupted work) is reported against the checkpoint interval --
denser checkpoints salvage more iterations and shrink MTTR.

The gates run at the quick tier, the seconds-scale CI gate
(REPRO_TIER=default restores full budgets).  The serving runs are the
``mixed`` row of ``repro.serve.scenarios`` at test_serve.py's tier
budgets.
"""

import tempfile
from dataclasses import dataclass
from pathlib import Path

import pytest

from repro.faults import FaultPlan
from repro.harness.common import resolve_tier
from repro.util.tables import format_series
from tests.gates.test_serve import fingerprint, run_mixed

#: The canonical 10% per-launch fault mix: failed launches dominate,
#: with lost results and absorbed latency spikes riding along.
FAULT_MIX = FaultPlan(
    launch_fail_rate=0.05,
    lost_result_rate=0.03,
    stall_rate=0.02,
    stall_factor=8.0,
    mpi_drop_rate=0.05,
    seed=7,
)


def fault_scales() -> tuple[float, ...]:
    """Scale factors applied to FAULT_MIX's 10% total per-launch rate."""
    if resolve_tier() == "full":
        return (0.0, 0.25, 0.5, 1.0, 2.0, 4.0)
    return (0.0, 0.5, 1.0, 2.0)


def run_with_faults(plan: FaultPlan | None = FAULT_MIX):
    """Serve the mixed workload under ``plan`` (None = no fault layer)."""
    return run_mixed(deadlines=False, faults=plan)


def run_fault_sweep():
    """Fault-rate scale -> ServiceReport, over the tier's scales."""
    return {
        scale: run_with_faults(FAULT_MIX.scaled(scale)).report
        for scale in fault_scales()
    }


def render_sweep(reports) -> str:
    scales = sorted(reports)
    return format_series(
        "fault scale",
        [f"{s:g}x" for s in scales],
        {
            "completion": [
                f"{reports[s].completion_rate * 100:.0f}%"
                for s in scales
            ],
            "degraded": [str(reports[s].degraded) for s in scales],
            "p50 latency (ms)": [
                f"{reports[s].p50_latency_s * 1e3:.2f}" for s in scales
            ],
            "p95 latency (ms)": [
                f"{reports[s].p95_latency_s * 1e3:.2f}" for s in scales
            ],
            "retries": [str(reports[s].retries) for s in scales],
            "retry overhead (ms)": [
                f"{reports[s].retry_overhead_s * 1e3:.2f}"
                for s in scales
            ],
            "faults": [
                str(sum(reports[s].faults_injected.values()))
                for s in scales
            ],
        },
        title="fault-rate sweep (mixed workload, shared 4-GPU pool)",
    )


@dataclass(frozen=True)
class CrashBenchConfig:
    n_requests: int = 32
    crash_tick: int = 30
    #: Checkpoint intervals (iterations) swept for the MTTR curve.
    checkpoint_intervals: tuple[int, ...] = (5, 20, 80, 0)

    @staticmethod
    def for_tier(tier: str | None = None) -> "CrashBenchConfig":
        tier = resolve_tier(tier)
        if tier == "quick":
            return CrashBenchConfig(n_requests=12, crash_tick=12)
        if tier == "full":
            return CrashBenchConfig(
                n_requests=64,
                crash_tick=60,
                checkpoint_intervals=(2, 5, 10, 20, 40, 80, 0),
            )
        return CrashBenchConfig()


@dataclass(frozen=True)
class RecoveryOutcome:
    """One crash/recover cycle, folded for the MTTR table."""

    mttr_s: float
    adopted: int
    resumed: int
    restarted: int
    iterations_salvaged: int
    completed: int


def run_crash_recovery(
    cfg: CrashBenchConfig, checkpoint_every: int, journal_dir=None
) -> RecoveryOutcome:
    """Kill a journalled run at ``cfg.crash_tick``, recover, report."""
    if journal_dir is None:
        with tempfile.TemporaryDirectory() as tmp:
            return run_crash_recovery(cfg, checkpoint_every, tmp)
    served = run_mixed(
        cfg.n_requests,
        deadlines=False,
        journal=Path(journal_dir) / f"crash_{checkpoint_every}.jsonl",
        checkpoint_every=checkpoint_every,
        faults=FaultPlan.parse(f"crash=tick:{cfg.crash_tick}"),
    )
    assert served.crashed is not None, "planned crash never fired"
    report = served.report
    return RecoveryOutcome(
        # MTTR: virtual time the recovered service needs to finish the
        # work the crash interrupted.
        mttr_s=report.elapsed_s,
        adopted=report.recovered,
        resumed=report.resumed,
        restarted=report.restarted,
        iterations_salvaged=report.recovered_iterations,
        completed=report.completed,
    )


def run_mttr_sweep(cfg: CrashBenchConfig):
    """Checkpoint interval -> RecoveryOutcome for a fixed crash."""
    return {
        every: run_crash_recovery(cfg, every)
        for every in cfg.checkpoint_intervals
    }


def render_mttr_sweep(outcomes) -> str:
    intervals = sorted(outcomes, key=lambda k: (k == 0, k))
    return format_series(
        "checkpoint every",
        [str(i) if i else "off" for i in intervals],
        {
            "MTTR (ms)": [
                f"{outcomes[i].mttr_s * 1e3:.2f}" for i in intervals
            ],
            "adopted": [str(outcomes[i].adopted) for i in intervals],
            "resumed": [str(outcomes[i].resumed) for i in intervals],
            "restarted": [
                str(outcomes[i].restarted) for i in intervals
            ],
            "iters salvaged": [
                str(outcomes[i].iterations_salvaged) for i in intervals
            ],
        },
        title="crash-recovery sweep (journalled service, planned kill)",
    )


# ---------------------------------------------------------------------------
# Silent-data-corruption: detection sweep + defended/undefended differential
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CorruptBenchConfig:
    """Service-level corruption sweep: detection and quarantine rates."""

    n_requests: int = 48
    corrupt_rates: tuple[float, ...] = (0.01, 0.05, 0.2)
    mode: str = "bitflip"

    @staticmethod
    def for_tier(tier: str | None = None) -> "CorruptBenchConfig":
        tier = resolve_tier(tier)
        if tier == "quick":
            return CorruptBenchConfig(n_requests=24)
        if tier == "full":
            return CorruptBenchConfig(
                corrupt_rates=(0.01, 0.02, 0.05, 0.1, 0.2, 0.4)
            )
        return CorruptBenchConfig()


def run_with_corruption(
    cfg: CorruptBenchConfig, rate: float, defenses: bool = True
):
    """Serve the mixed workload under a ``corrupt=rate:mode`` plan."""
    from repro.integrity import IntegrityPolicy

    return run_mixed(
        cfg.n_requests,
        deadlines=False,
        faults=f"corrupt={rate}:{cfg.mode},seed=7",
        integrity=None if defenses else IntegrityPolicy.disabled(),
    )


def detection_rate(report) -> float:
    """Detected over all corruptions that actually fired."""
    fired = report.corrupt_detected + report.corrupt_escaped
    if fired == 0:
        return 1.0
    return report.corrupt_detected / fired


def run_corrupt_sweep(cfg: CorruptBenchConfig):
    """Corruption rate -> ServiceReport, over ``cfg.corrupt_rates``."""
    return {
        rate: run_with_corruption(cfg, rate).report
        for rate in cfg.corrupt_rates
    }


def render_corrupt_sweep(reports) -> str:
    rates = sorted(reports)
    return format_series(
        "corrupt rate",
        [f"{r:g}" for r in rates],
        {
            "detected": [
                str(reports[r].corrupt_detected) for r in rates
            ],
            "escaped": [
                str(reports[r].corrupt_escaped) for r in rates
            ],
            "detection": [
                f"{detection_rate(reports[r]) * 100:.1f}%"
                for r in rates
            ],
            "rejected": [
                str(reports[r].rejected_results) for r in rates
            ],
            "dropped": [
                str(reports[r].dropped_batches) for r in rates
            ],
            "quarantined": [
                str(reports[r].quarantined_trees) for r in rates
            ],
            "completion": [
                f"{reports[r].completion_rate * 100:.0f}%"
                for r in rates
            ],
        },
        title="corruption sweep (bitflip readbacks, defended service)",
    )


@dataclass(frozen=True)
class DifferentialConfig:
    """Move-match differential: corrupted search vs fault-free truth.

    For each seeded reversi position the fault-free engine's chosen
    move is the reference; the same engine searched under the
    corruption plan must agree on at least :attr:`match_floor` of
    positions *with* defenses, and measurably fewer without (phantom
    wins flow straight into the root vote when nothing audits them).
    """

    n_positions: int = 12
    plies: int = 4
    budget_s: float = 0.015
    engine: str = "block:64x4"
    game: str = "reversi"
    plan: str = "corrupt=0.05:bitflip,poison=tree:0,seed=7"
    #: Win-ratio vote: the paper's alternative final-move rule, and
    #: the one silent phantom wins can actually swing.
    final_policy: str = "max_ratio"
    match_floor: float = 0.9
    seed: int = 2011

    @staticmethod
    def for_tier(tier: str | None = None) -> "DifferentialConfig":
        tier = resolve_tier(tier)
        if tier == "quick":
            return DifferentialConfig(n_positions=6, budget_s=0.01)
        if tier == "full":
            return DifferentialConfig(n_positions=24)
        return DifferentialConfig()


def _seeded_position(game, cfg: DifferentialConfig, i: int):
    """Deterministic early-game position: ``plies`` pseudo-random
    moves from the initial state (counter-hash indexed, no RNG
    object)."""
    from repro.util.seeding import derive_seed

    state = game.initial_state()
    for ply in range(cfg.plies):
        moves = game.legal_moves(state)
        if not moves or game.is_terminal(state):
            break
        pick = derive_seed(cfg.seed, "diffpos", i, ply) % len(moves)
        state = game.apply(state, moves[pick])
    return state


def _search_move(
    game, cfg: DifferentialConfig, i: int, state, plan, defenses
):
    from repro.core import make_engine
    from repro.faults import FaultInjector
    from repro.integrity import IntegrityPolicy
    from repro.util.clock import Clock

    kwargs = {}
    if plan is not None:
        kwargs["injector"] = FaultInjector(FaultPlan.parse(plan))
        if not defenses:
            kwargs["integrity"] = IntegrityPolicy.disabled()
    engine = make_engine(
        cfg.engine,
        game,
        seed=derive_seed_for_position(cfg.seed, i),
        clock=Clock(),
        final_policy=cfg.final_policy,
        **kwargs,
    )
    return engine.search(state, cfg.budget_s)


def derive_seed_for_position(seed: int, i: int) -> int:
    from repro.util.seeding import derive_seed

    return derive_seed(seed, "diffeng", i)


@dataclass(frozen=True)
class DifferentialOutcome:
    matches_defended: int
    matches_undefended: int
    n_positions: int
    quarantines: int

    @property
    def defended_rate(self) -> float:
        return self.matches_defended / self.n_positions

    @property
    def undefended_rate(self) -> float:
        return self.matches_undefended / self.n_positions


def run_move_differential(
    cfg: DifferentialConfig,
) -> DifferentialOutcome:
    """Fault-free reference vs corrupted search, with and without the
    integrity defenses, over the seeded positions."""
    from repro.games import make_game

    game = make_game(cfg.game)
    defended = undefended = quarantines = 0
    for i in range(cfg.n_positions):
        state = _seeded_position(game, cfg, i)
        reference = _search_move(game, cfg, i, state, None, True).move
        shielded = _search_move(game, cfg, i, state, cfg.plan, True)
        exposed = _search_move(game, cfg, i, state, cfg.plan, False)
        defended += shielded.move == reference
        undefended += exposed.move == reference
        quarantines += len(
            shielded.extras.get("integrity.quarantined", ())
        )
    return DifferentialOutcome(
        matches_defended=defended,
        matches_undefended=undefended,
        n_positions=cfg.n_positions,
        quarantines=quarantines,
    )


def render_differential(
    cfg: DifferentialConfig, outcome: DifferentialOutcome
) -> str:
    return format_series(
        "search",
        ["defended", "undefended"],
        {
            "move matches": [
                f"{outcome.matches_defended}/{outcome.n_positions}",
                f"{outcome.matches_undefended}/{outcome.n_positions}",
            ],
            "match rate": [
                f"{outcome.defended_rate * 100:.0f}%",
                f"{outcome.undefended_rate * 100:.0f}%",
            ],
        },
        title=(
            f"move-match differential ({cfg.engine} {cfg.game}, "
            f"{cfg.plan})"
        ),
    )


def test_ten_percent_faults_complete_without_errors():
    _, report = run_with_faults()
    print()
    print("10% per-launch fault mix:")
    print(report.render())
    assert report.completed == report.offered == 64
    assert report.completion_rate == 1.0
    assert report.missed == 0
    assert report.rejected == 0
    assert sum(report.faults_injected.values()) > 0
    assert report.retries > 0


def test_zero_fault_rate_is_a_noop():
    base_records, base_report = run_with_faults(plan=None)
    zero_records, zero_report = run_with_faults(FAULT_MIX.scaled(0.0))
    assert fingerprint(base_records) == fingerprint(zero_records)
    assert base_report == zero_report
    assert zero_report.faults_injected == {}
    assert zero_report.retries == 0


def test_fault_injection_deterministic():
    records, report = run_with_faults()
    again, report2 = run_with_faults()
    assert fingerprint(records) == fingerprint(again)
    assert report == report2
    assert [r.lost_lanes for r in records] == [
        r.lost_lanes for r in again
    ]
    assert [r.degraded for r in records] == [r.degraded for r in again]


def test_fault_sweep_degrades_gracefully():
    reports = run_fault_sweep()
    print()
    print(render_sweep(reports))
    assert set(reports) == set(fault_scales())
    for scale, report in reports.items():
        assert report.completion_rate == 1.0, (
            f"errors at fault scale {scale}"
        )
    injected = [
        sum(reports[s].faults_injected.values())
        for s in sorted(reports)
    ]
    assert injected == sorted(injected)


@pytest.mark.integrity
def test_corrupt_bitflips_always_detected(headline):
    cfg = CorruptBenchConfig.for_tier()
    reports = run_corrupt_sweep(cfg)
    print()
    print(render_corrupt_sweep(reports))
    for rate, report in reports.items():
        assert report.completion_rate == 1.0, (
            f"errors at corrupt rate {rate}"
        )
        assert detection_rate(report) >= 0.99, (
            f"detection below gate at corrupt rate {rate}"
        )
    assert reports[0.05].corrupt_detected > 0
    headline.append(
        f"corruption detection {detection_rate(reports[0.05]):.1%} "
        "at corrupt=0.05:bitflip"
    )


@pytest.mark.integrity
def test_defenses_off_lets_corruption_escape():
    cfg = CorruptBenchConfig.for_tier()
    _, report = run_with_corruption(cfg, 0.2, defenses=False)
    assert report.corrupt_detected == 0
    assert report.rejected_results == 0
    assert report.corrupt_escaped > 0


@pytest.mark.integrity
def test_move_differential_defends_the_vote():
    cfg = DifferentialConfig.for_tier()
    outcome = run_move_differential(cfg)
    print()
    print(render_differential(cfg, outcome))
    assert outcome.defended_rate >= cfg.match_floor
    assert outcome.matches_undefended < outcome.matches_defended
    assert outcome.quarantines > 0


def test_crash_recovery_completes_every_request(tmp_path):
    cfg = CrashBenchConfig.for_tier()
    outcome = run_crash_recovery(cfg, 5, journal_dir=tmp_path)
    assert outcome.completed == cfg.n_requests
    assert outcome.adopted + outcome.resumed + outcome.restarted == (
        cfg.n_requests
    )
    assert outcome.resumed > 0
    assert outcome.iterations_salvaged > 0


def test_denser_checkpoints_salvage_no_less_work(headline):
    cfg = CrashBenchConfig.for_tier()
    outcomes = run_mttr_sweep(cfg)
    print()
    print(render_mttr_sweep(outcomes))
    for outcome in outcomes.values():
        assert outcome.completed == cfg.n_requests
    # With checkpointing off nothing is salvaged; the densest interval
    # salvages at least as much as any sparser one.
    assert outcomes[0].iterations_salvaged == 0
    assert outcomes[0].resumed == 0
    densest = min(i for i in outcomes if i)
    assert outcomes[densest].iterations_salvaged == max(
        o.iterations_salvaged for o in outcomes.values()
    )
    headline.append("crash recovery completed every request")

