"""``bench.py --selftest``: the benchmark checks itself at tiny sizes.

Not collected by the repository's tier-1 tests: it lives with the
benchmark and guards the benchmark's own contract -- ``BENCHMARK.json``
is well formed, every declared metric is emitted for every workload,
the summariser survives empty and single samples, and a fingerprint is
a function of the seed and nothing else.
"""

from __future__ import annotations

import math
import re
import time

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
KEYS = {
    "command",
    "paths",
    "run_seconds",
    "workloads",
    "end_to_end",
    "per_layer",
}


class Checks:
    """Collects failed expectations instead of stopping at the first."""

    def __init__(self) -> None:
        self.failures: list[str] = []
        self.count = 0

    def expect(self, condition: bool, message: str) -> None:
        self.count += 1
        if not condition:
            self.failures.append(message)
            print(f"FAIL: {message}")


def check_spec(spec: dict, c: Checks) -> None:
    c.expect(set(spec) == KEYS, f"BENCHMARK.json keys are {sorted(spec)}")
    c.expect(2 <= len(spec["workloads"]) <= 8, "2 to 8 workloads")
    c.expect(1 <= len(spec["end_to_end"]) <= 16, "1 to 16 end-to-end metrics")
    c.expect(1 <= len(spec["per_layer"]) <= 128, "1 to 128 per-layer metrics")
    c.expect(
        isinstance(spec["run_seconds"], int) and 1 <= spec["run_seconds"] <= 60,
        "run_seconds is a whole number from 1 to 60",
    )
    names = [
        entry["name"]
        for key in ("workloads", "end_to_end", "per_layer")
        for entry in spec[key]
    ]
    c.expect(len(set(names)) == len(names), "every name is used once")
    for name in names:
        c.expect(bool(NAME.match(name)), f"name {name!r} is well formed")
    for w in spec["workloads"]:
        c.expect(set(w) == {"name", "why"}, f"workload {w['name']} keys")
        c.expect(
            len(w["why"]) <= 200 and "\n" not in w["why"],
            f"workload {w['name']}: why is one line of at most 200",
        )
    for m in spec["end_to_end"]:
        c.expect(
            set(m) == {"name", "unit", "better", "bound"},
            f"end-to-end {m['name']} keys",
        )
        c.expect(0 <= m["bound"] <= 0.25, f"{m['name']}: bound within 0.25")
    for m in spec["per_layer"]:
        c.expect(
            set(m) == {"name", "unit", "better"}, f"per-layer {m['name']} keys"
        )
    for m in spec["end_to_end"] + spec["per_layer"]:
        c.expect(bool(UNIT.match(m["unit"])), f"{m['name']}: unit {m['unit']!r}")
        c.expect(m["better"] in ("lower", "higher"), f"{m['name']}: better")
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    c.expect(
        len(setup) == 1
        and setup[0]["unit"] == "s"
        and setup[0]["better"] == "lower",
        "setup_s is declared, in seconds, lower is better",
    )


def check_summary(c: Checks) -> None:
    from compare import verdict
    from summary import Stats, percentile, quartile_spread

    empty = Stats.from_values([])
    c.expect(empty.n == 0 and math.isnan(empty.median), "empty sample is NaN")
    one = Stats.from_values([3.5])
    c.expect(
        (one.median, one.min, one.max, one.n, one.spread) == (3.5, 3.5, 3.5, 1, 0.0),
        "single sample summarises to itself with zero spread",
    )
    c.expect(
        abs(quartile_spread([9, 10, 11, 10, 10, 9, 11, 10, 10, 10]) - 0.05)
        < 1e-12,
        "quartile spread follows statistics.quantiles(n=4)",
    )
    c.expect(math.isnan(percentile([], 95)), "percentile of nothing is NaN")
    c.expect(percentile(list(range(1, 101)), 95) == 95, "nearest-rank p95")
    steady = [1.0, 1.01, 0.99, 1.0, 1.02]
    c.expect(verdict(steady, steady, "lower", 0.1) == "same", "verdict: same")
    c.expect(
        verdict(steady, [v * 1.5 for v in steady], "lower", 0.1) == "worse",
        "verdict: worse",
    )
    c.expect(
        verdict(steady, [v * 0.5 for v in steady], "lower", 0.1) == "better",
        "verdict: better",
    )
    noisy = [1.0, 1.6, 0.7, 1.3, 0.9]
    c.expect(
        verdict(noisy, [v * 1.05 for v in noisy], "lower", 0.1) == "unresolved",
        "verdict: spread wider than the bound is unresolved",
    )
    c.expect(
        verdict([1.0, 2.0], [1.0, 2.5], "higher", 0.1, exact=True) == "better",
        "verdict: an exact metric that moved is a change",
    )


def check_workloads(spec: dict, build_dir, seed: int, c: Checks) -> None:
    from runner import measure, trace
    from ladder import Ladder
    from workloads import PRODUCT, WORKLOADS, execute

    declared = [w["name"] for w in spec["workloads"]]
    c.expect(declared == list(WORKLOADS), "declared workloads are the six built")
    for w in spec["workloads"]:
        c.expect(
            w["why"] == WORKLOADS[w["name"]].why,
            f"{w['name']}: BENCHMARK.json repeats the workload's why",
        )
    end_to_end = {m["name"] for m in spec["end_to_end"]}
    per_layer = {m["name"] for m in spec["per_layer"]}
    ladder = Ladder(seed, build_dir, quick=True).run()
    for name, workload in WORKLOADS.items():
        detail = measure(workload, seed, 0.0, reduced=True)
        c.expect(
            set(detail["values"]) == end_to_end,
            f"{name}: emits exactly the declared end-to-end metrics",
        )
        for metric, value in detail["values"].items():
            c.expect(
                math.isfinite(value) and value != 0,
                f"{name}: {metric} is finite and not 0 (got {value})",
            )
        # measure() already compared every repetition and the oracle
        # replay against the warm-up; no failure means one fingerprint.
        c.expect(not detail["failures"], f"{name}: {detail['failures']}")
        inputs = workload.inputs(seed + 1, PRODUCT, True)
        other = execute(workload, workload.system(inputs, seed + 1, PRODUCT, True))
        c.expect(
            other.fingerprint != detail["fingerprint"],
            f"{name}: another seed gives another fingerprint",
        )
        traced = trace(workload, seed, reduced=True)
        c.expect(
            set(traced["values"]) | set(ladder) == per_layer,
            f"{name}: traced run + ladder emit exactly the per-layer metrics",
        )
        c.expect(
            traced["fingerprint"] == detail["fingerprint"],
            f"{name}: tracing leaves the fingerprint alone",
        )
        c.expect(
            all(math.isfinite(v) for v in traced["values"].values()),
            f"{name}: per-layer values are finite",
        )
    c.expect(
        all(math.isfinite(v) for v in ladder.values()),
        "ladder values are finite",
    )


def selftest(spec: dict, build_dir, seed: int = 2011) -> int:
    started = time.perf_counter()
    c = Checks()
    check_spec(spec, c)
    check_summary(c)
    check_workloads(spec, build_dir, seed, c)
    elapsed = time.perf_counter() - started
    print(
        f"selftest: {c.count - len(c.failures)}/{c.count} checks passed "
        f"in {elapsed:.1f} s"
    )
    return 1 if c.failures else 0
