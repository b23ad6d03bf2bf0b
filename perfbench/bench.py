#!/usr/bin/env python3
"""One benchmark, two clocks.

``BENCHMARK.json`` at the repository root declares the workloads and
metrics; this runner measures them.  Host-clock metrics say how fast the
NumPy/C/Python simulator runs on this machine, virtual-clock metrics say
what the modelled C2050 fleet delivers.

  bench.py                       every workload (untraced + traced run),
                                 results written with --out
  bench.py --workload NAME       one workload with identical settings;
                                 the last stdout line is the result JSON
  bench.py --workload NAME --trace 1
                                 the per-layer run: layer ladder plus one
                                 traced repetition of NAME
  bench.py --layers-only         only the layer ladder
  bench.py --compare A.json [B.json]
  bench.py --selftest

The stack under test is pinned (arena + compiled + fused); the run
aborts, rather than measure the NumPy fallback under a ``compiled``
label, when the C kernels cannot be built.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD_DIR = ROOT / ".bench_build"
SPEC_PATH = ROOT / "BENCHMARK.json"

#: One process, one core: the host has two, and a BLAS pool that
#: sometimes wakes up is run-to-run noise the benchmark cannot afford.
THREAD_PINS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)

DEFAULT_SEED = 2011

#: Exit codes: 2 = not a checkout of the repository, 3 = the stack
#: under test is unavailable (no C toolchain), 1 = anything else.
EXIT_NO_CHECKOUT = 2
EXIT_NO_STACK = 3


def bootstrap() -> None:
    """Pin threads, keep build output inside the checkout, and put the
    program under test on the import path.  Must run before NumPy loads."""
    if not (ROOT / "src" / "repro").is_dir() or not SPEC_PATH.is_file():
        print(
            f"bench: {ROOT} is not a checkout of the repository "
            "(src/repro or BENCHMARK.json missing)",
            file=sys.stderr,
        )
        raise SystemExit(EXIT_NO_CHECKOUT)
    for name in THREAD_PINS:
        os.environ[name] = "1"
    os.environ["REPRO_COMPILED_CACHE"] = str(BUILD_DIR / "repro-compiled")
    sys.path.insert(0, str(ROOT / "src"))


def require_stack() -> None:
    """Fail closed when the compiled executor would silently fall back."""
    from repro.compiled import compiled_available, unavailable_reason

    if not compiled_available():
        print(
            "bench: compiled playout kernels unavailable "
            f"({unavailable_reason()}); refusing to measure the NumPy "
            "fallback under a 'compiled' label",
            file=sys.stderr,
        )
        raise SystemExit(EXIT_NO_STACK)


def load_spec() -> dict:
    return json.loads(SPEC_PATH.read_text())


def host_info(seed: int) -> dict:
    import numpy

    def first_line(cmd):
        try:
            out = subprocess.run(
                cmd, capture_output=True, text=True, timeout=10, cwd=ROOT
            )
        except (OSError, subprocess.SubprocessError):
            return "unknown"
        text = (out.stdout or out.stderr).strip()
        return text.splitlines()[0] if out.returncode == 0 and text else "unknown"

    cc = os.environ.get("CC") or next(
        (c for c in ("cc", "gcc", "clang") if shutil.which(c)), None
    )
    return {
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "cc": first_line([cc, "--version"]) if cc else "none",
        "git_sha": first_line(["git", "rev-parse", "HEAD"]),
        "seed": seed,
        "thread_pins": {name: os.environ.get(name) for name in THREAD_PINS},
    }


# -- the contract: one workload, one result line ------------------------------


def run_workload(
    name: str,
    seed: int,
    seconds: float,
    traced: bool,
    spec: dict,
    out_path: "Path | None" = None,
) -> dict:
    """Run one workload and print its metrics; the last line printed is
    the result object the benchmark contract asks for."""
    from workloads import WORKLOADS

    workload = WORKLOADS[name]
    declared = spec["per_layer" if traced else "end_to_end"]
    if traced:
        from ladder import Ladder
        from runner import trace

        detail = trace(workload, seed)
        detail["values"].update(Ladder(seed, BUILD_DIR).run())
    else:
        from runner import measure

        detail = measure(workload, seed, seconds)
    values = detail["values"]
    missing = [m["name"] for m in declared if m["name"] not in values]
    if missing:
        raise RuntimeError(f"metrics declared but not measured: {missing}")

    print(f"# {name}  seed={seed}  {'traced' if traced else 'untraced'}")
    if name == "storm_retry":
        print(
            "# open loop on the virtual clock: arrivals are scheduled, "
            "not sent, so generator lateness is 0 by construction; "
            "latency is timed from the due time"
        )
    metrics = {}
    for m in declared:
        value = float(values[m["name"]])
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
        stats = detail.get("host_stats", {}).get(m["name"])
        spread = (
            f"  (min {stats['min']:.6g}  max {stats['max']:.6g}  "
            f"n {stats['n']})"
            if stats
            else ""
        )
        print(f"{m['name']:52s} {value:16.6g} {m['unit']}{spread}")
    raw = detail.get("raw")
    if raw:
        print(
            f"# raw medians, not host-speed normalised: wall_s "
            f"{raw['wall_s']:.6g}  setup_s {raw['setup_s']:.6g}  "
            f"(probe burst {raw['probe_s']['median']:.6g} s, "
            f"min {raw['probe_s']['min']:.6g}, max {raw['probe_s']['max']:.6g})"
        )
    for failure in detail["failures"]:
        print(f"FAILED: {failure}")
    print(f"fingerprint {detail['fingerprint']}")

    failed = min(len(detail["failures"]), detail["attempted"])
    result = {
        "correct": failed == 0,
        "attempted": int(detail["attempted"]),
        "failed": int(failed),
        "metrics": metrics,
    }
    if out_path is not None:
        out_path.parent.mkdir(parents=True, exist_ok=True)
        out_path.write_text(
            json.dumps(
                {
                    "workload": name,
                    "seed": seed,
                    "traced": traced,
                    "result": result,
                    "fingerprint": detail["fingerprint"],
                    "host_stats": detail.get("host_stats", {}),
                    "raw": detail.get("raw", {}),
                    "failures": detail["failures"],
                    "spans": detail.get("spans", []),
                }
            )
        )
    print(json.dumps(result))
    return result


# -- every workload: a set of runs --------------------------------------------


def _child(args: list, out_path: Path) -> dict:
    """One workload run in its own process (``peak_rss_mb`` is per
    workload); returns the detail it wrote."""
    cmd = [sys.executable, str(HERE / "bench.py"), *args, "--out", str(out_path)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout + proc.stderr)
        raise SystemExit(proc.returncode)
    detail = json.loads(out_path.read_text())
    out_path.unlink()
    return detail


def run_set(names, seed: int, runs: int, seconds: float) -> dict:
    """``runs`` untraced runs (seeds ``seed``, ``seed+1``, ...) and one
    traced run of every workload in ``names``."""
    started = time.perf_counter()
    workloads = {}
    for name in names:
        rows = []
        for seed_i in range(seed, seed + runs):
            detail = _child(
                ["--workload", name, "--seed", str(seed_i),
                 "--seconds", str(seconds), "--trace", "0"],
                BUILD_DIR / f"run-{name}-{seed_i}.json",
            )
            rows.append(
                {
                    "seed": seed_i,
                    "metrics": detail["result"]["metrics"],
                    "host_stats": detail["host_stats"],
                    "raw": detail["raw"],
                    "fingerprint": detail["fingerprint"],
                    "attempted": detail["result"]["attempted"],
                    "failed": detail["result"]["failed"],
                }
            )
            wall = detail["result"]["metrics"]["wall_s"]["value"]
            print(
                f"{name:14s} seed {seed_i}  wall_s {wall:.4f}  "
                f"failed {rows[-1]['failed']}/{rows[-1]['attempted']}",
                flush=True,
            )
        traced = _child(
            ["--workload", name, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", "1"],
            BUILD_DIR / f"run-{name}-{seed}-traced.json",
        )
        spans_path = BUILD_DIR / f"spans-{name}-{seed}.json"
        spans_path.write_text(json.dumps(traced["spans"]))
        print(f"{name:14s} traced  spans -> {spans_path}", flush=True)
        workloads[name] = {
            "runs": rows,
            "layers": traced["result"]["metrics"],
            "traced_fingerprint": traced["fingerprint"],
        }
    return {"workloads": workloads, "wall_s_total": time.perf_counter() - started}


# -- command line --------------------------------------------------------------


def parse_args(argv) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        description="perfbench: end-to-end and per-layer benchmark"
    )
    parser.add_argument("--workload", help="run only this workload")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument(
        "--seconds",
        type=float,
        default=None,
        help="timed region per run (default: run_seconds of BENCHMARK.json)",
    )
    parser.add_argument(
        "--trace",
        type=int,
        choices=(0, 1),
        nargs="?",
        const=1,
        default=0,
        help="1: layer ladder + traced repetition (per-layer metrics)",
    )
    parser.add_argument(
        "--runs",
        type=int,
        default=1,
        help="untraced runs per workload in a set (seeds seed..seed+runs-1)",
    )
    parser.add_argument(
        "--sets", type=int, default=1, help="sets of runs to write to --out"
    )
    parser.add_argument("--out", type=Path, help="write the result JSON here")
    parser.add_argument("--layers-only", action="store_true")
    parser.add_argument("--compare", nargs="+", metavar="JSON", type=Path)
    parser.add_argument("--selftest", action="store_true")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.compare:
        from compare import compare_files

        return compare_files(args.compare, load_spec())
    bootstrap()
    spec = load_spec()
    if args.selftest:
        from selftest import selftest

        require_stack()
        return selftest(spec, BUILD_DIR)
    require_stack()
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]

    if args.layers_only:
        from ladder import Ladder

        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        values = Ladder(args.seed, BUILD_DIR).run()
        for name, value in values.items():
            print(f"{name:52s} {value:16.6g} {units[name]}")
        if args.out:
            args.out.write_text(json.dumps({"layers": values}, indent=1))
        return 0

    if args.workload:
        from workloads import WORKLOADS

        if args.workload not in WORKLOADS:
            print(
                f"bench: unknown workload {args.workload!r}; "
                f"known: {', '.join(WORKLOADS)}",
                file=sys.stderr,
            )
            return 1
        run_workload(
            args.workload,
            args.seed,
            seconds,
            bool(args.trace),
            spec,
            out_path=args.out,
        )
        return 0

    names = [w["name"] for w in spec["workloads"]]
    sets = [
        run_set(names, args.seed, args.runs, seconds)
        for _ in range(args.sets)
    ]
    document = {
        "benchmark": "perfbench",
        "host": host_info(args.seed),
        "settings": {
            "seed": args.seed,
            "runs": args.runs,
            "seconds": seconds,
        },
        "sets": sets,
    }
    failed = sum(
        run["failed"]
        for s in sets
        for w in s["workloads"].values()
        for run in w["runs"]
    )
    for i, s in enumerate(sets):
        print(f"set {i}: {s['wall_s_total']:.0f} s wall in total")
    print(f"failed operations: {failed}")
    if args.out:
        args.out.write_text(json.dumps(document, indent=1) + "\n")
        print(f"wrote {args.out}")
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
