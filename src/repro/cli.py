"""Command-line interface.

::

    python -m repro experiments                 # list experiment ids
    python -m repro run fig5_speed --tier quick # run one, print table
    python -m repro play --engine block:16x32   # GPU MCTS vs greedy
    python -m repro devices                     # virtual device specs
    python -m repro serve-bench --loads 64      # batched service bench
"""

from __future__ import annotations

import argparse
import sys
import time
from dataclasses import replace

from repro.core.backend import BACKENDS
from repro.core.executors import PLAYOUT_EXECUTORS


def _cmd_experiments(_args) -> int:
    from repro.harness import EXPERIMENTS

    for name in EXPERIMENTS:
        print(name)
    return 0


def _cmd_run(args) -> int:
    from repro.harness import run_experiment

    t0 = time.perf_counter()
    result = run_experiment(args.name, args.tier)
    print(result.render())
    print(f"\n[{args.name} took {time.perf_counter() - t0:.1f}s wall]")
    return 0


def _cmd_play(args) -> int:
    from repro.arena import play_game
    from repro.core import make_engine, with_stack
    from repro.games import make_game
    from repro.players import GreedyPlayer, MctsPlayer, RandomPlayer

    def stacked(text: str) -> str:
        """``text`` on the ``--backend`` / ``--playout`` stack."""
        spec = with_stack(text, args.backend, args.playout)
        return spec if isinstance(spec, str) else spec.canonical()

    game = make_game(args.game)
    spec = stacked(args.engine or f"block:{args.blocks}x{args.tpb}")
    mcts = MctsPlayer(
        game,
        make_engine(spec, game, args.seed),
        move_budget_s=args.budget,
        name=spec,
    )
    if args.opponent_engine:
        opp_name = stacked(args.opponent_engine)
        opponent = MctsPlayer(
            game,
            make_engine(opp_name, game, args.seed + 1),
            move_budget_s=args.budget,
            name=opp_name,
        )
    else:
        opp_name = args.opponent
        opp_cls = (
            GreedyPlayer if args.opponent == "greedy" else RandomPlayer
        )
        opponent = opp_cls(game, args.seed + 1)
    record = play_game(game, mcts, opponent)
    state = game.initial_state()
    for move in record.moves:
        state = game.apply(state, move.move)
    print(game.render(state))
    outcome = {1: f"{spec} wins", -1: f"{opp_name} wins", 0: "draw"}
    print(
        f"\n{outcome[record.winner]} "
        f"(score {record.final_score:+d}, {record.length} plies)"
    )
    return 0 if record.winner >= 0 else 1


def _cmd_devices(_args) -> int:
    from repro.gpu import list_devices

    for spec in list_devices():
        print(
            f"{spec.name}: {spec.sm_count} SMs x "
            f"{spec.max_threads_per_sm} "
            f"threads @ {spec.clock_hz / 1e9:.2f} GHz, "
            f"{spec.global_mem_bytes // 1024**2} MiB"
        )
    print(_host_line())
    return 0


def _host_line() -> str:
    """What plays the playouts on this host: the kernel body and how many
    block workers a launch uses, or why there is no kernel library."""
    from repro.compiled import block_workers, kernel_body, unavailable_reason

    body = kernel_body()
    if body is None:
        return f"host: no compiled kernels ({unavailable_reason()})"
    return f"host: kernel body {body}, {block_workers()} block workers"


#: Flags each serve-bench mode cannot honour, by mode flag (argparse
#: attribute names); the first mode flag set, in this order, wins.
_UNSUPPORTED = {
    "retry_storm": (
        "resume",
        "trace_out",
        "profile",
        "no_defenses",
        "cluster",
        "storm",
        "faults",
        "journal",
    ),
    "storm": ("resume", "trace_out", "profile", "no_defenses", "cluster"),
    "cluster": ("resume", "trace_out", "profile", "no_defenses"),
}


def _set(row, **flags):
    """``row`` (a dataclass or a kwargs dict) with the flags the user
    gave; ``None`` -- a mode-dependent flag left unset -- keeps the
    row's value."""
    given = {k: v for k, v in flags.items() if v is not None}
    return {**row, **given} if isinstance(row, dict) else replace(row, **given)


def _cmd_serve_bench_storm(args, mode: str) -> int:
    """``--storm`` (open loop) and ``--retry-storm`` (the same storm
    with closed-loop retrying clients and their defenses): the
    calibrated row of ``repro.serve.scenarios`` at ``--seed``, moved
    by whatever flags were given."""
    from repro.serve import run_storm, scenarios

    t0 = time.perf_counter()
    closed_loop = mode == "retry_storm"
    row = getattr(scenarios, mode)(args.seed)
    # The crowd keeps its place in the horizon when --storm-horizon
    # stretches or shrinks it.
    trace = _set(row.trace, horizon_s=args.storm_horizon)
    stretch = trace.horizon_s / row.trace.horizon_s
    (crowd,) = trace.components
    crowd = _set(
        crowd,
        start_s=crowd.start_s * stretch,
        duration_s=crowd.duration_s * stretch,
        multiplier=args.storm_crowd,
    )
    trace = _set(
        trace,
        base_rate=args.storm_rate,
        components=(crowd,),
        workload=_set(
            trace.workload,
            budget_scale=args.budget_scale,
            backend=args.backend,
            playout=args.playout,
            position_skew=args.skew,
            position_pool=args.position_pool,
        ),
    )
    row = replace(
        _set(row, n_devices=args.devices, max_active=args.max_active),
        trace=trace,
        overload=None if args.no_overload else row.overload,
        autoscale=(
            # The storm row's autoscaler, under the flag's ceiling.
            dict(scenarios.storm().autoscale, max_devices=args.autoscale_max)
            if args.autoscale_max
            else None
        ),
        faults=args.faults,
        journal=args.journal,
    )
    if closed_loop:
        clients = dict(
            row.clients,
            retry=dict(
                row.clients["retry"],
                kind=args.retry_kind,
                base_s=args.retry_base,
                cap_s=args.retry_base * 8,
                max_attempts=args.retry_attempts,
            ),
        )
        if args.client_seed is not None:
            clients["seed"] = args.client_seed
        if args.no_breaker:
            del clients["breaker"]
        if args.no_throttle:
            del clients["throttle"]
        row = replace(
            row,
            clients=clients,
            retry_budget=None if args.no_budget else row.retry_budget,
        )
    outcome = run_storm(row)
    report = outcome.report
    title = "retry storm" if closed_loop else "storm"
    table = "retry storm" if closed_loop else "storm run"
    defended = "undefended" if args.no_overload else "defended"
    offered = (
        f"{report.first_tries} first tries + "
        f"{report.retries_offered} retries"
        if closed_loop
        else f"{len(outcome.requests)} arrivals"
    )
    print(
        f"--- {title}: {offered} over {trace.horizon_s:.2f}s, "
        f"{crowd.multiplier:.0f}x flash crowd, {defended} ---"
    )
    print(report.render(f"{table} ({defended})"))
    if outcome.crashes:
        print(
            f"crashes: {outcome.crashes}  recoveries: "
            f"{outcome.recoveries}  MTTR: {outcome.mttr_s:.4f}s"
        )
    if closed_loop:
        verdict = outcome.metastability
        state = "TRAPPED" if verdict.trapped else "recovered"
        print(
            f"metastability: {state} "
            f"({verdict.trapped_bins} consecutive trapped bins, "
            f"post-crowd goodput/offered {verdict.goodput_ratio:.2f}, "
            f"post-crowd interactive SLO "
            f"{outcome.post_crowd_attainment:.0%})"
        )
    print(
        f"[serve-bench took {time.perf_counter() - t0:.1f}s wall]"
    )
    return 0


def _closed_row(args, load: int) -> tuple:
    """The ``mixed`` row at ``--seed`` under the closed-workload flags
    (the single-service and --cluster modes): ``(workload, service
    kwargs)``."""
    from repro.serve import scenarios

    workload, service = scenarios.mixed(args.seed)
    workload = _set(
        workload,
        n_requests=load,
        budget_scale=args.budget_scale,
        deadline_s=args.deadline,
        backend=args.backend,
        playout=args.playout,
        position_skew=args.skew,
        position_pool=args.position_pool,
    )
    service = _set(
        service,
        n_devices=args.devices,
        max_active=args.max_active,
        faults=args.faults,
        backend=args.backend,
        playout=args.playout,
        fusion=not args.no_fusion,
    )
    return workload, service


def _cmd_serve_bench_cluster(args) -> int:
    from repro.serve import ClusterRouter, make_workload

    t0 = time.perf_counter()
    for load in args.loads:
        workload, service = _closed_row(args, load)
        cluster = ClusterRouter(
            n_shards=args.cluster,
            replicas=args.replicas,
            cache=not args.no_cache,
            journal_dir=args.journal,
            **service,
        )
        cluster.submit_all(make_workload(workload))
        cluster.run()
        print(f"--- offered load: {load} requests ---")
        print(cluster.report().render())
        print()
    print(
        f"[serve-bench took {time.perf_counter() - t0:.1f}s wall]"
    )
    return 0


def _cmd_serve_bench(args) -> int:
    from repro.gpu.trace import Tracer
    from repro.serve import SearchService, ServiceCrash, make_workload, serve

    from repro.util.profile import NULL_PROFILER, Profiler

    mode = next((m for m in _UNSUPPORTED if getattr(args, m)), None)
    if mode is not None:
        for name in _UNSUPPORTED[mode]:
            if getattr(args, name):
                print(
                    f"serve-bench: --{name.replace('_', '-')} is not "
                    f"supported with --{mode.replace('_', '-')}",
                    file=sys.stderr,
                )
                return 2
        if mode == "cluster":
            return _cmd_serve_bench_cluster(args)
        return _cmd_serve_bench_storm(args, mode)
    if args.resume and not args.journal:
        print("serve-bench: --resume requires --journal", file=sys.stderr)
        return 2
    if args.journal and len(args.loads) > 1:
        print(
            "serve-bench: --journal tracks one run; give a single --loads",
            file=sys.stderr,
        )
        return 2
    tracer = Tracer() if args.trace_out else None
    t0 = time.perf_counter()
    for load in args.loads:
        profiler = Profiler() if args.profile else NULL_PROFILER
        with profiler.phase("build_workload"):
            workload, service_kwargs = _closed_row(args, load)
            service_kwargs.update(
                tracer=tracer, checkpoint_every=args.checkpoint_every
            )
            if args.no_defenses:
                from repro.integrity import IntegrityPolicy

                service_kwargs["integrity"] = IntegrityPolicy.disabled()
            requests = [] if args.resume else make_workload(workload)
        with profiler.phase("service_run"):
            try:
                if args.resume:
                    # Requests (and any checkpoints) come from the
                    # journal; planned crashes are stripped so
                    # recovery completes.
                    service = SearchService.recover(
                        args.journal, **service_kwargs
                    )
                    service.run()
                    report = service.report()
                else:
                    # A planned crash stops here: the journal is the
                    # hand-over to --resume.
                    served = serve(
                        requests,
                        journal=args.journal,
                        recover=False,
                        **service_kwargs,
                    )
                    service, report = served.service, served.report
            except ServiceCrash as crash:
                print(f"--- offered load: {load} requests ---")
                print(f"service crashed: {crash}")
                print(
                    f"journal preserved at {args.journal}; rerun with "
                    "--resume to finish the interrupted work"
                )
                return 3
        profiler.count("requests", load)
        profiler.count("ticks", service.ticks)
        print(f"--- offered load: {load} requests ---")
        print(report.render())
        if profiler.enabled:
            print()
            print(profiler.render(title=f"serve-bench load={load}"))
        print()
    if args.trace_out:
        with open(args.trace_out, "w", encoding="utf-8") as fp:
            tracer.dump(fp)
        print(f"trace written to {args.trace_out}")
    print(f"[serve-bench took {time.perf_counter() - t0:.1f}s wall]")
    return 0


def _fault_plan(text: str):
    """Parse ``--faults`` into a validated plan at argparse time."""
    from repro.faults import FaultPlan, FaultPlanError

    try:
        return FaultPlan.parse(text)
    except FaultPlanError as exc:
        raise argparse.ArgumentTypeError(str(exc))


def _load_list(text: str) -> tuple[int, ...]:
    """Parse ``--loads``: comma-separated positive request counts."""
    try:
        loads = tuple(int(x) for x in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated integers, got {text!r}"
        ) from None
    if not loads or any(n <= 0 for n in loads):
        raise argparse.ArgumentTypeError(
            f"loads must be positive integers, got {text!r}"
        )
    return loads


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduction of 'Large-Scale Parallel MCTS on GPU' "
            "(Rocki & Suda, IPDPS 2011)"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser(
        "experiments", help="list experiment ids"
    ).set_defaults(func=_cmd_experiments)

    run = sub.add_parser("run", help="run one experiment")
    run.add_argument("name")
    run.add_argument(
        "--tier", choices=("quick", "default", "full"), default=None
    )
    run.set_defaults(func=_cmd_run)

    play = sub.add_parser(
        "play", help="play one game: an engine spec vs a baseline"
    )
    play.add_argument("--game", default="reversi")
    play.add_argument(
        "--engine",
        default=None,
        help=(
            "engine spec, e.g. block:16x32, root:64, sequential "
            "(default: block:BLOCKSxTPB)"
        ),
    )
    play.add_argument(
        "--opponent-engine",
        default=None,
        help="engine spec for the opponent (overrides --opponent)",
    )
    play.add_argument(
        "--opponent", choices=("greedy", "random"), default="greedy"
    )
    play.add_argument("--blocks", type=int, default=16)
    play.add_argument("--tpb", type=int, default=32)
    play.add_argument("--budget", type=float, default=0.02)
    play.add_argument("--seed", type=int, default=2011)
    play.add_argument(
        "--backend",
        choices=BACKENDS,
        default=None,
        help=(
            "tree backend for both engines (@suffix in a spec wins); "
            "default: arena where the game has C kernels and they "
            "load, else node"
        ),
    )
    play.add_argument(
        "--playout",
        choices=PLAYOUT_EXECUTORS,
        default=None,
        help=(
            "playout executor for both engines (@suffix in a spec "
            "wins); default: compiled on an arena with C kernels, else "
            "numpy; 'compiled' falls back to numpy without a C toolchain"
        ),
    )
    play.set_defaults(func=_cmd_play)

    sub.add_parser(
        "devices", help="list virtual device specs"
    ).set_defaults(func=_cmd_devices)

    bench = sub.add_parser(
        "serve-bench",
        help="load-generate the batched search service, print metrics",
    )
    bench.add_argument(
        "--loads",
        type=_load_list,
        default=(64,),
        help="comma-separated offered loads (requests per run)",
    )
    bench.add_argument("--devices", type=int, default=None)
    bench.add_argument("--max-active", type=int, default=None)
    bench.add_argument(
        "--budget-scale",
        type=float,
        default=None,
        help=(
            "scale per-request search budgets (default: the mode's "
            "calibrated row, like --devices and --max-active -- 1.0, "
            "or 0.25 with --storm / --retry-storm)"
        ),
    )
    bench.add_argument(
        "--deadline",
        type=float,
        default=2.0,
        help="relative per-request deadline in virtual seconds",
    )
    bench.add_argument("--seed", type=int, default=2011)
    bench.add_argument(
        "--faults",
        type=_fault_plan,
        default=None,
        metavar="PLAN",
        help=(
            "inject deterministic faults, e.g. "
            "'launch=0.1,lost=0.05,stall=0.02x8,outage=1@0.5+0.2,"
            "corrupt=0.05:bitflip,disk=0.1,seed=7'"
        ),
    )
    bench.add_argument(
        "--no-defenses",
        action="store_true",
        help=(
            "disable the integrity defenses (result validation, tree "
            "audits, quarantine) -- corruption flows through unchecked; "
            "for measuring what the defenses buy"
        ),
    )
    bench.add_argument(
        "--journal",
        default=None,
        metavar="PATH",
        help=(
            "write-ahead request journal (JSONL); with a crash fault "
            "the journal survives the outage for --resume"
        ),
    )
    bench.add_argument(
        "--resume",
        action="store_true",
        help=(
            "recover from --journal instead of generating a workload: "
            "adopt completed requests, resume checkpointed ones"
        ),
    )
    bench.add_argument(
        "--checkpoint-every",
        type=int,
        default=50,
        metavar="N",
        help="journal an engine snapshot every N iterations (0 = off)",
    )
    bench.add_argument(
        "--trace-out",
        default=None,
        help="write a Chrome trace JSON of the run to this path",
    )
    bench.add_argument(
        "--backend",
        choices=BACKENDS,
        default=None,
        help=(
            "tree backend applied to every engine in the workload; "
            "default: each game's (arena where it has C kernels and "
            "they load, else node)"
        ),
    )
    bench.add_argument(
        "--playout",
        choices=PLAYOUT_EXECUTORS,
        default=None,
        help=(
            "playout executor applied to every engine in the workload "
            "and the tick launches; default: each game's (compiled on "
            "an arena with C kernels, else numpy)"
        ),
    )
    bench.add_argument(
        "--no-fusion",
        action="store_true",
        help=(
            "disable cross-tenant kernel fusion (one launch per game "
            "per tick instead of one fused launch per tick)"
        ),
    )
    bench.add_argument(
        "--profile",
        action="store_true",
        help="print a wall-clock phase profile per offered load",
    )
    bench.add_argument(
        "--cluster",
        type=int,
        default=0,
        metavar="N",
        help=(
            "serve through an N-shard cluster (consistent-hash "
            "routing + Zobrist result cache) instead of one service; "
            "--journal then names a per-shard journal directory"
        ),
    )
    bench.add_argument(
        "--replicas",
        type=int,
        default=1,
        metavar="R",
        help=(
            "with --cluster: fan each request out to R shards and "
            "vote the results (trimmed mean)"
        ),
    )
    bench.add_argument(
        "--no-cache",
        action="store_true",
        help="with --cluster: disable the cluster-wide result cache",
    )
    bench.add_argument(
        "--skew",
        type=float,
        default=0.0,
        metavar="S",
        help=(
            "Zipf exponent for duplicate-position traffic "
            "(0 = every request searches the initial position)"
        ),
    )
    bench.add_argument(
        "--position-pool",
        type=int,
        default=0,
        metavar="P",
        help=(
            "candidate positions per game for skewed traffic "
            "(0 = 32 when --skew is set)"
        ),
    )
    bench.add_argument(
        "--storm",
        action="store_true",
        help=(
            "fire an open-loop flash-crowd storm (Poisson arrivals, "
            "priority classes, overload controller) instead of the "
            "closed workload; see docs/overload.md"
        ),
    )
    bench.add_argument(
        "--storm-rate",
        type=float,
        default=None,
        metavar="R",
        help=(
            "with --storm / --retry-storm: baseline arrival rate "
            "(requests/s; default 450 storm, 150 retry-storm)"
        ),
    )
    bench.add_argument(
        "--storm-horizon",
        type=float,
        default=None,
        metavar="S",
        help=(
            "with --storm / --retry-storm: trace horizon in virtual "
            "seconds (default 0.6 storm, 1.0 retry-storm)"
        ),
    )
    bench.add_argument(
        "--storm-crowd",
        type=float,
        default=None,
        metavar="M",
        help=(
            "with --storm / --retry-storm: flash-crowd rate "
            "multiplier (default 4 storm, 10 retry-storm)"
        ),
    )
    bench.add_argument(
        "--retry-storm",
        action="store_true",
        help=(
            "fire a closed-loop retry storm: every shed/rejected/"
            "missed outcome is retried by seeded clients, and the "
            "defense stack (ladder + retry budget + breakers + "
            "throttle) is measured against the metastable trap; see "
            "docs/overload.md"
        ),
    )
    bench.add_argument(
        "--retry-kind",
        choices=("none", "immediate", "fixed", "exponential"),
        default="exponential",
        help="with --retry-storm: client backoff kind",
    )
    bench.add_argument(
        "--retry-attempts",
        type=int,
        default=10,
        metavar="N",
        help="with --retry-storm: max attempts per request lineage",
    )
    bench.add_argument(
        "--retry-base",
        type=float,
        default=0.02,
        metavar="S",
        help="with --retry-storm: base backoff in virtual seconds",
    )
    bench.add_argument(
        "--client-seed",
        type=int,
        default=None,
        metavar="N",
        help=(
            "with --retry-storm: seed for the client population's "
            "jitter/throttle streams (default: --seed)"
        ),
    )
    bench.add_argument(
        "--no-breaker",
        action="store_true",
        help=(
            "with --retry-storm: disable the per-client circuit "
            "breakers"
        ),
    )
    bench.add_argument(
        "--no-throttle",
        action="store_true",
        help=(
            "with --retry-storm: disable client-side adaptive "
            "throttling"
        ),
    )
    bench.add_argument(
        "--no-budget",
        action="store_true",
        help=(
            "with --retry-storm: disable the server-side retry "
            "budget (token-bucket admission for retries)"
        ),
    )
    bench.add_argument(
        "--no-overload",
        action="store_true",
        help=(
            "with --storm: run undefended (no admission control, "
            "no shedding) -- for measuring what the ladder buys"
        ),
    )
    bench.add_argument(
        "--autoscale-max",
        type=int,
        default=0,
        metavar="N",
        help=(
            "with --storm: let the autoscaler grow the device fleet "
            "up to N devices (0 = fixed fleet)"
        ),
    )
    bench.set_defaults(func=_cmd_serve_bench)
    for command in sub.choices.values():
        command.set_defaults(usage_error=command.error)
    return parser


def main(argv: list[str] | None = None) -> int:
    """Run one command.  A value the command refuses -- a
    ``ValueError`` or ``PoolError`` from building its game, engines,
    experiment or service -- is a usage error (exit 2 with the
    command's usage line), not a traceback."""
    from repro.gpu.lease import PoolError

    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, PoolError) as exc:
        args.usage_error(str(exc))


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
