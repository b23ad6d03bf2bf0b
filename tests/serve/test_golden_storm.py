"""Cross-commit golden for the defended serving path.

One small retry storm with every defense on -- degradation ladder,
closed-loop retrying clients with breakers and a throttle, server-side
retry budget -- plus a planned ``crash=tick`` recovered from the
journal, folded to a per-record digest and compared against a
checked-in golden.  The same-commit replay tests cannot see a
refactor that changes behaviour on both of their runs; this can.

To intentionally update the golden after a deliberate behaviour
change::

    REPRO_REGEN_GOLDEN=1 PYTHONPATH=src python -m pytest \
        tests/serve/test_golden_storm.py
"""

import hashlib
import json
import os
from pathlib import Path

from repro.serve import (
    FlashCrowd,
    StormConfig,
    TraceConfig,
    WorkloadConfig,
    run_storm,
)

GOLDEN_PATH = Path(__file__).parent / "golden" / "defended_storm.json"


def run_defended_storm(journal: Path):
    return run_storm(
        StormConfig(
            trace=TraceConfig(
                base_rate=150.0,
                horizon_s=0.3,
                seed=12,
                components=(
                    FlashCrowd(
                        start_s=0.03, duration_s=0.12, multiplier=10.0
                    ),
                ),
                class_deadline_s=(
                    ("interactive", 0.1),
                    ("standard", 0.2),
                    ("batch", 0.4),
                ),
                workload=WorkloadConfig(
                    seed=12,
                    engines=("sequential", "root:2", "block:2x32"),
                    budget_scale=0.25,
                    position_skew=1.1,
                    position_pool=8,
                ),
            ),
            n_devices=2,
            max_active=8,
            max_queue=16,
            seed=12,
            overload=dict(
                max_level=3,
                window=16,
                release=0.6,
                deescalate_after=3,
            ),
            clients=dict(
                retry=dict(
                    kind="exponential",
                    base_s=0.02,
                    cap_s=0.16,
                    jitter=0.3,
                    max_attempts=4,
                ),
                seed=12,
                breaker=dict(failure_threshold=5, reset_timeout_s=0.1),
                throttle=dict(k=1.5, window=64),
            ),
            retry_budget=dict(
                fill_per_first_try=0.1, cap=10.0, initial=2.0
            ),
            faults="crash=tick:40",
            journal=journal,
        )
    )


def project(outcome) -> dict:
    """Per-record digest plus the counters that prove each defense
    actually fired (a golden of an idle run would pin nothing)."""
    rows = sorted(
        (
            r.request.request_id,
            r.status,
            r.outcome,
            r.degrade_level,
            None if r.latency_s is None else round(r.latency_s, 9),
            None if r.result is None else r.result.move,
            None
            if r.result is None
            else sorted(
                (int(m), float(v), float(w))
                for m, (v, w) in r.result.stats.items()
            ),
        )
        for r in outcome.records
    )
    report = outcome.report
    return {
        "digest": hashlib.sha256(
            json.dumps(rows, separators=(",", ":")).encode()
        ).hexdigest(),
        "records": len(rows),
        "statuses": {
            status: sum(1 for row in rows if row[1] == status)
            for status in sorted({row[1] for row in rows})
        },
        "crashes": outcome.crashes,
        "recoveries": outcome.recoveries,
        "mttr_us": round(outcome.mttr_s * 1e6, 3),
        "recovered": report.recovered,
        "peak_overload_level": report.peak_overload_level,
        "degraded": report.degraded,
        "retries_offered": report.retries_offered,
        "budget_rejected": report.budget_rejected,
        "breaker_opens": report.breaker_opens,
    }


def test_defended_storm_matches_golden(tmp_path):
    projected = project(run_defended_storm(tmp_path / "storm.jsonl"))
    if os.environ.get("REPRO_REGEN_GOLDEN"):
        GOLDEN_PATH.write_text(
            json.dumps(projected, indent=2, sort_keys=True) + "\n"
        )
    golden = json.loads(GOLDEN_PATH.read_text())
    for name in (
        "crashes",
        "recovered",
        "peak_overload_level",
        "degraded",
        "retries_offered",
        "budget_rejected",
        "breaker_opens",
    ):
        assert golden[name] > 0, f"golden run never exercised {name}"
    assert projected == golden
