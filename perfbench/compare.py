"""``bench.py --compare``: two sets of runs, one verdict per row.

Each row is one workload x end-to-end metric: both medians with their
min/max, the ratio with its base, the bound, and a verdict.  Virtual
-clock metrics are exact functions of the seed, so they (and the
per-run fingerprints) are compared seed by seed and any difference is a
change; host-clock metrics are compared by the rule of the
choosing-metrics guide -- a spread wider than the bound makes the row
``unresolved`` unless one side's every run beats the other's.
"""

from __future__ import annotations

import json
from pathlib import Path

from summary import Stats

#: End-to-end metrics that repeat bit for bit from a seed.
EXACT = frozenset(
    {
        "virt_playouts_per_s",
        "virt_requests_per_s",
        "virt_latency_p50_ms",
        "virt_latency_p95_ms",
        "goodput_frac",
        "interactive_attainment",
        "paper_rate_rel_err",
    }
)

#: Which workloads a per-layer metric should move (first matching
#: prefix wins; an empty tuple means none of the six).  This is the
#: interaction table of the README, in the form --compare needs.
MOVES = (
    ("trace.overhead_frac", None),  # every workload reports its own
    ("games.batch.", ()),
    ("games.reversi.expand_step_us", ("search_tree", "serve_mixed", "storm_retry")),
    ("games.", ("serve_mixed", "storm_retry")),
    ("rng.", ("storm_retry",)),
    ("compiled.playouts_per_s.reversi.w8192", ("search_block",)),
    ("compiled.playouts_per_s.reversi.w128", ("serve_mixed", "storm_retry")),
    ("compiled.call_overhead_us", ("serve_mixed", "storm_retry")),
    ("compiled.cold_build_s", ()),
    ("compiled.", ("search_block", "serve_mixed")),
    ("core.arena.select_expand_all_us", ("search_tree", "search_block")),
    ("core.arena.backprop_block_us", ("search_tree", "search_block")),
    ("core.arena.", ("serve_mixed", "storm_retry")),
    ("core.tree.", ()),
    ("core.engine.", ("search_block", "search_tree")),
    ("core.block.", ("search_block", "search_tree")),
    ("core.step_share", ("serve_mixed", "storm_retry")),
    ("gpu.", ("serve_mixed", "storm_retry")),
    ("serve.scheduler.", ("serve_mixed",)),
    ("serve.service.", ("serve_mixed", "storm_retry")),
    ("serve.cluster.route_us", ("cluster_skew",)),
    ("serve.cluster.", ("cluster_indep",)),
    ("serve.cache.lookup_us", ("cluster_skew",)),
    ("serve.cache.insert_us", ("cluster_indep",)),
    ("serve.cache.", ("cluster_skew", "cluster_indep")),
    ("serve.overload.", ("storm_retry",)),
    ("serve.clients.", ("storm_retry",)),
    ("serve.storm.", ("storm_retry",)),
    ("serve.journal.", ()),
    ("mpi.", ()),
    ("util.profile.", ()),
)


def moved_workloads(metric: str):
    """Workloads ``metric`` should move (``None`` = all of them)."""
    for prefix, workloads in MOVES:
        if metric.startswith(prefix):
            return workloads
    return ()


def verdict(a, b, better: str, bound: float, exact: bool = False) -> str:
    """``better | same | worse | unresolved`` for B against base A.

    ``a`` and ``b`` are the per-run values of one metric, paired by
    seed when ``exact``."""
    sign = 1.0 if better == "higher" else -1.0
    sa, sb = Stats.from_values(a), Stats.from_values(b)
    if sa.n == 0 or sb.n == 0:
        return "unresolved"
    gain = sign * (sb.median - sa.median)
    if exact:
        if list(a) == list(b):
            return "same"
        if gain == 0:
            return "unresolved"
        return "better" if gain > 0 else "worse"
    rel = gain / abs(sa.median) if sa.median else 0.0
    if min(sign * v for v in b) > max(sign * v for v in a):
        return "better"
    if max(sa.spread, sb.spread) > bound:
        if max(sign * v for v in b) < min(sign * v for v in a):
            return "worse"
        return "unresolved"
    if rel < -bound:
        return "worse"
    if rel > bound:
        return "better"
    return "same"


def _load_sets(paths) -> tuple:
    """(label, set) pairs: two files' first sets, or one file's first
    two."""
    docs = [json.loads(Path(p).read_text()) for p in paths]
    if len(docs) == 1:
        sets = docs[0]["sets"]
        if len(sets) < 2:
            raise SystemExit(
                f"{paths[0]} holds {len(sets)} set(s); give two files "
                "or one file with two sets"
            )
        return (f"{paths[0]}#0", sets[0]), (f"{paths[0]}#1", sets[1])
    if len(docs) != 2:
        raise SystemExit("--compare takes one or two result files")
    return (str(paths[0]), docs[0]["sets"][0]), (str(paths[1]), docs[1]["sets"][0])


def _values(runs, metric: str) -> list:
    return [run["metrics"][metric]["value"] for run in runs]


def compare_files(paths, spec: dict) -> int:
    """Print the comparison; exit code 1 when any row is ``worse`` or
    ``unresolved``."""
    (label_a, set_a), (label_b, set_b) = _load_sets(paths)
    print(f"A (base): {label_a}\nB       : {label_b}")
    bad = 0
    for w in spec["workloads"]:
        name = w["name"]
        wa = set_a["workloads"].get(name)
        wb = set_b["workloads"].get(name)
        if wa is None or wb is None:
            print(f"\n== {name}: missing on one side")
            bad += 1
            continue
        runs_a = {r["seed"]: r for r in wa["runs"]}
        runs_b = {r["seed"]: r for r in wb["runs"]}
        seeds = sorted(runs_a.keys() & runs_b.keys())
        pa = [runs_a[s] for s in seeds]
        pb = [runs_b[s] for s in seeds]
        same_fp = sum(
            1 for x, y in zip(pa, pb) if x["fingerprint"] == y["fingerprint"]
        )
        failed = sum(r["failed"] for r in pa + pb)
        print(
            f"\n== {name}: {len(seeds)} paired seeds, fingerprints "
            f"identical on {same_fp}/{len(seeds)}, failed operations "
            f"{failed}"
        )
        if not seeds or same_fp != len(seeds) or failed:
            bad += 1
        print(
            f"{'metric':26s} {'A median [min, max]':>38s} "
            f"{'B median [min, max]':>38s} {'B/A':>8s} {'bound':>6s}  verdict"
        )
        for m in spec["end_to_end"]:
            a = _values(pa, m["name"])
            b = _values(pb, m["name"])
            exact = m["name"] in EXACT
            v = verdict(a, b, m["better"], m["bound"], exact)
            bad += v in ("worse", "unresolved")
            sa, sb = Stats.from_values(a), Stats.from_values(b)
            ratio = sb.median / sa.median if sa.n and sa.median else float("nan")
            print(
                f"{m['name']:26s} "
                f"{sa.median:14.6g} [{sa.min:10.5g},{sa.max:10.5g}] "
                f"{sb.median:14.6g} [{sb.min:10.5g},{sb.max:10.5g}] "
                f"{ratio:8.4f} "
                f"{'exact' if exact else format(m['bound'], '.2f'):>6s}  {v}"
            )
        print("  per-layer metrics that should move this workload (B/A, base A):")
        for m in spec["per_layer"]:
            moved = moved_workloads(m["name"])
            if moved is not None and name not in moved:
                continue
            va = wa["layers"][m["name"]]["value"]
            vb = wb["layers"][m["name"]]["value"]
            ratio = f"{vb / va:8.4f}" if va else "     n/a"
            print(
                f"    {m['name']:50s} {va:14.6g} {vb:14.6g} "
                f"{m['unit']:6s} {ratio}"
            )
    idle = [
        m["name"] for m in spec["per_layer"] if moved_workloads(m["name"]) == ()
    ]
    print("\nper-layer metrics that should move none of the six workloads:")
    first = set_a["workloads"][spec["workloads"][0]["name"]]["layers"]
    second = set_b["workloads"][spec["workloads"][0]["name"]]["layers"]
    for metric in idle:
        va, vb = first[metric]["value"], second[metric]["value"]
        ratio = f"{vb / va:8.4f}" if va else "     n/a"
        print(f"    {metric:50s} {va:14.6g} {vb:14.6g} {ratio}")
    print(
        f"\n{bad} row(s) worse, unresolved or inconsistent"
        if bad
        else "\nno row worse, none unresolved"
    )
    return 1 if bad else 0
