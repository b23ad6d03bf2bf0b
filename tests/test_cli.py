"""Tests for the command-line interface."""

import re
from dataclasses import replace

import pytest

from repro import serve
from repro.cli import build_parser, main
from repro.serve import run_storm, scenarios


def usage_error(argv, capsys) -> str:
    """Run ``argv``, which must end as a usage error -- exit 2, the
    command's usage line on stderr, no traceback -- and return the
    error text."""
    with pytest.raises(SystemExit) as exited:
        main(argv)
    assert exited.value.code == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(f"usage: repro {argv[0]} ")
    prefix = f"repro {argv[0]}: error: "
    assert prefix in captured.err
    return captured.err.split(prefix, 1)[1]


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_defaults(self):
        args = build_parser().parse_args(["run", "fig5_speed"])
        assert args.name == "fig5_speed"
        assert args.tier is None


class TestCommands:
    def test_experiments_lists_all_figures(self, capsys):
        assert main(["experiments"]) == 0
        out = capsys.readouterr().out
        for fig in ("fig5_speed", "fig6_winratio", "fig9_multigpu"):
            assert fig in out

    def test_devices(self, capsys):
        assert main(["devices"]) == 0
        out = capsys.readouterr().out
        assert "tesla_c2050" in out
        assert "14 SMs" in out

    def test_devices_ends_with_the_host_line(self, capsys, compiled_env):
        from repro.compiled import block_workers, kernel_body

        assert main(["devices"]) == 0
        last = capsys.readouterr().out.splitlines()[-1]
        if kernel_body() is None:
            assert last.startswith("host: no compiled kernels (")
        else:
            assert last == (
                f"host: kernel body {kernel_body()}, "
                f"{block_workers()} block workers"
            )
        compiled_env("0")
        assert main(["devices"]) == 0
        last = capsys.readouterr().out.splitlines()[-1]
        assert last == (
            "host: no compiled kernels (disabled via REPRO_COMPILED)"
        )

    def test_run_unknown_experiment(self, capsys):
        err = usage_error(["run", "fig42"], capsys)
        assert err.startswith("unknown experiment 'fig42'")

    def test_run_cheap_experiment(self, capsys):
        assert main(["run", "abl_sequential_part"]) == 0
        out = capsys.readouterr().out
        assert "sequential" in out
        assert "took" in out

    def test_play_tictactoe(self, capsys):
        code = main(
            [
                "play",
                "--game",
                "tictactoe",
                "--opponent",
                "random",
                "--blocks",
                "2",
                "--tpb",
                "32",
                "--budget",
                "0.002",
            ]
        )
        out = capsys.readouterr().out
        assert code in (0, 1)
        assert "wins" in out or "draw" in out

    def test_play_with_engine_specs(self, capsys):
        code = main(
            [
                "play",
                "--game",
                "tictactoe",
                "--engine",
                "root:2",
                "--opponent-engine",
                "sequential",
                "--budget",
                "0.002",
            ]
        )
        out = capsys.readouterr().out
        assert code in (0, 1)
        assert "wins" in out or "draw" in out

    def test_play_opponent_engine_runs_on_the_stack_flags(self, monkeypatch):
        """``--backend`` / ``--playout`` reach the ``--opponent-engine``
        as they reach ``--engine``."""
        import repro.core

        make_engine, built = repro.core.make_engine, []

        def spy(spec, game, seed, **overrides):
            built.append(make_engine(spec, game, seed, **overrides))
            return built[-1]

        monkeypatch.setattr(repro.core, "make_engine", spy)
        code = main(
            [
                "play",
                "--game",
                "tictactoe",
                "--engine",
                "root:2",
                "--opponent-engine",
                "sequential",
                "--backend",
                "arena",
                "--playout",
                "compiled",
                "--budget",
                "0.002",
            ]
        )
        assert code in (0, 1)
        subject, opponent = built
        assert (subject.name, opponent.name) == ("root_parallel", "sequential")
        for engine in built:
            assert (engine.backend, engine.playout) == ("arena", "compiled")

    def test_play_rejects_bad_engine_spec(self, capsys):
        argv = ["play", "--game", "tictactoe", "--engine", "warp_drive"]
        assert "warp_drive" in usage_error(argv, capsys)

    @pytest.mark.parametrize(
        "argv,message",
        [
            (
                ("play", "--game", "tictactoe", "--budget", "0"),
                "move budget must be positive",
            ),
            (
                ("play", "--game", "tictactoe", "--blocks", "0"),
                "blocks must be positive",
            ),
            (
                ("play", "--game", "tictactoe", "--engine", "foo:1"),
                "unknown engine kind 'foo'",
            ),
            (("play", "--game", "chess"), "unknown game 'chess'"),
            (
                ("serve-bench", "--devices", "0", "--loads", "2"),
                "device pool needs at least one device",
            ),
        ],
        ids=[
            "zero_budget",
            "zero_blocks",
            "unknown_kind",
            "unknown_game",
            "no_devices",
        ],
    )
    def test_refused_value_is_a_usage_error(self, argv, message, capsys):
        """A value the game, engine or service refuses -- including the
        pool's ``PoolError`` -- exits 2, not 1 (which ``play`` returns
        when the opponent wins)."""
        assert message in usage_error(list(argv), capsys)

    def test_serve_bench_small_load(self, capsys, tmp_path):
        trace = tmp_path / "trace.json"
        code = main(
            [
                "serve-bench",
                "--loads",
                "4",
                "--budget-scale",
                "0.5",
                "--trace-out",
                str(trace),
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "offered load: 4" in out
        assert "requests/s" in out
        assert trace.exists()

    @pytest.mark.faults
    def test_serve_bench_crash_then_resume(self, capsys, tmp_path):
        journal = tmp_path / "journal.jsonl"
        common = [
            "serve-bench",
            "--loads",
            "8",
            "--devices",
            "2",
            "--budget-scale",
            "0.25",
            "--journal",
            str(journal),
            "--checkpoint-every",
            "5",
        ]
        code = main(common + ["--faults", "crash=tick:20"])
        out = capsys.readouterr().out
        assert code == 3
        assert "service crashed" in out
        assert journal.exists()

        code = main(common + ["--resume"])
        out = capsys.readouterr().out
        assert code == 0
        assert "recovered (adopted)" in out
        assert "resumed from checkpoint" in out

    def test_serve_bench_resume_requires_journal(self, capsys):
        assert main(["serve-bench", "--resume"]) == 2
        assert "--journal" in capsys.readouterr().err

    def test_serve_bench_journal_single_load_only(self, capsys, tmp_path):
        code = main(
            [
                "serve-bench",
                "--loads",
                "4,8",
                "--journal",
                str(tmp_path / "j.jsonl"),
            ]
        )
        assert code == 2
        assert "single" in capsys.readouterr().err


#: How to spell each serve-bench flag on the command line.
FLAG_ARGS = {
    "--resume": ["--resume"],
    "--trace-out": ["--trace-out", "trace.json"],
    "--profile": ["--profile"],
    "--no-defenses": ["--no-defenses"],
    "--cluster": ["--cluster", "2"],
    "--storm": ["--storm"],
    "--retry-storm": ["--retry-storm"],
    "--faults": ["--faults", "launch=0.1"],
    "--journal": ["--journal", "journal.jsonl"],
}

#: Every (mode, flag the mode cannot honour) pair, spelled out rather
#: than read from the CLI's own table.
UNSUPPORTED = (
    [
        ("--retry-storm", flag)
        for flag in (
            "--resume",
            "--trace-out",
            "--profile",
            "--no-defenses",
            "--cluster",
            "--storm",
            "--faults",
            "--journal",
        )
    ]
    + [
        ("--storm", flag)
        for flag in (
            "--resume",
            "--trace-out",
            "--profile",
            "--no-defenses",
            "--cluster",
        )
    ]
    + [
        ("--cluster", flag)
        for flag in (
            "--resume",
            "--trace-out",
            "--profile",
            "--no-defenses",
        )
    ]
)


class TestServeBenchModes:
    @pytest.mark.parametrize("mode,flag", UNSUPPORTED)
    def test_unsupported_flag_exits_2(self, mode, flag, capsys):
        code = main(["serve-bench", *FLAG_ARGS[mode], *FLAG_ARGS[flag]])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"serve-bench: {flag} is not supported with {mode}\n"
        )

    @pytest.mark.parametrize(
        "flags,message",
        [
            (("--storm-rate", "0"), "base_rate must be positive: 0.0"),
            (
                ("--storm-rate", "200000", "--storm-horizon", "1"),
                "passes the 100000-arrival cap",
            ),
        ],
        ids=["zero_rate", "past_the_arrival_cap"],
    )
    def test_refused_storm_config_is_a_usage_error(
        self, flags, message, capsys
    ):
        """A value the serving configs refuse exits 2 with the usage
        line and the config's message, not a traceback."""
        with pytest.raises(SystemExit) as exited:
            main(["serve-bench", "--storm", *flags])
        assert exited.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("usage: repro serve-bench ")
        assert "repro serve-bench: error: " in captured.err
        assert message in captured.err

    def test_storm_smoke(self, capsys):
        code = main(
            [
                "serve-bench",
                "--storm",
                "--storm-horizon",
                "0.1",
                "--storm-rate",
                "200",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "--- storm: " in out
        assert "4x flash crowd, defended ---" in out
        assert "storm run (defended)" in out
        assert "interactive: attainment" in out

    def test_retry_storm_smoke(self, capsys):
        code = main(
            ["serve-bench", "--retry-storm", "--storm-horizon", "0.1"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "--- retry storm: " in out
        assert "10x flash crowd, defended ---" in out
        assert "retry storm (defended)" in out
        assert "metastability: " in out


#: serve-bench storm flags -> the scenario row they must run (at the
#: seed the rows were calibrated at), the table title they print, and
#: the interactive SLO attainment (%) the docs promise there.
CALIBRATED = [
    pytest.param(
        ["--storm", "--autoscale-max", "8"],
        scenarios.storm,
        "storm run (defended)",
        lambda attained: attained >= 95.0,
        id="storm",
    ),
    pytest.param(
        ["--storm", "--no-overload"],
        lambda seed: scenarios.storm(seed, defended=False),
        "storm run (undefended)",
        lambda attained: attained < 50.0,
        id="storm-undefended",
    ),
    pytest.param(
        ["--retry-storm"],
        scenarios.retry_storm,
        "retry storm (defended)",
        lambda attained: attained >= 90.0,
        id="retry-storm",
    ),
]


def unset_dropped(config):
    """``config`` without the service keys set to ``None``: ``None`` is
    :class:`~repro.serve.SearchService`'s default for each of them."""
    service = {k: v for k, v in config.service.items() if v is not None}
    return replace(config, service=service)


@pytest.mark.parametrize("argv,row,title,promised", CALIBRATED)
def test_serve_bench_storm_modes_run_the_calibrated_rows(
    argv, row, title, promised, capsys, monkeypatch
):
    """The documented commands print the documented numbers: with no
    flag moving it, a storm mode *is* its ``repro.serve.scenarios``
    row (the --storm defaults were once a guessed copy that printed 2%
    where README and REPORT_overload.md promise 100%)."""
    storms = []

    def spy(config):
        storms.append((config, run_storm(config)))
        return storms[-1][1]

    monkeypatch.setattr(serve, "run_storm", spy)
    assert main(["serve-bench", *argv, "--seed", "11"]) == 0
    out = capsys.readouterr().out
    ((config, outcome),) = storms
    assert unset_dropped(config) == unset_dropped(row(11))
    assert outcome.report.render(title) in out
    attained = re.search(r"interactive: attainment +([0-9.]+)%", out)
    assert promised(float(attained.group(1)))
