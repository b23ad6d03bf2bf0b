"""Tests for the command-line interface."""

import re

import pytest

from repro.cli import build_parser, main
from repro.serve import run_storm, scenarios


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

    def test_devices_ends_with_the_host_line(self, capsys, monkeypatch):
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
        monkeypatch.setenv("REPRO_COMPILED", "0")
        assert main(["devices"]) == 0
        last = capsys.readouterr().out.splitlines()[-1]
        assert last == (
            "host: no compiled kernels (disabled via REPRO_COMPILED)"
        )

    def test_run_unknown_experiment(self):
        with pytest.raises(ValueError, match="unknown experiment"):
            main(["run", "fig42"])

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

    def test_play_rejects_bad_engine_spec(self):
        with pytest.raises(ValueError, match="warp_drive"):
            main(
                [
                    "play",
                    "--game",
                    "tictactoe",
                    "--engine",
                    "warp_drive",
                ]
            )

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


@pytest.mark.parametrize("argv,row,title,promised", CALIBRATED)
def test_serve_bench_storm_modes_run_the_calibrated_rows(
    argv, row, title, promised, capsys
):
    """The documented commands print the documented numbers: with no
    flag moving it, a storm mode *is* its ``repro.serve.scenarios``
    row (the --storm defaults were once a guessed copy that printed 2%
    where README and REPORT_overload.md promise 100%)."""
    assert main(["serve-bench", *argv, "--seed", "11"]) == 0
    out = capsys.readouterr().out
    assert run_storm(row(11)).report.render(title) in out
    attained = re.search(r"interactive: attainment +([0-9.]+)%", out)
    assert promised(float(attained.group(1)))
