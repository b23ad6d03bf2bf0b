"""Every documented ``python -m repro`` command line parses.

The commands are read from README.md, docs/*.md, DESIGN.md,
benchmarks/REPORT_*.md and the CLI module's docstring (a trailing
``\\`` continues a command; an inline code span may wrap onto a line
that starts with ``--``), plus every line of tools/census_flows.txt.
Only the parser runs, so this is cheap; running the flows is
tools/census.py's job.
"""

import re
import shlex
from pathlib import Path

import pytest

from repro.cli import build_parser

ROOT = Path(__file__).resolve().parent.parent
SOURCES = [
    ROOT / "README.md",
    ROOT / "DESIGN.md",
    *sorted((ROOT / "docs").glob("*.md")),
    *sorted((ROOT / "benchmarks").glob("REPORT_*.md")),
    ROOT / "src" / "repro" / "cli.py",
]
COMMAND = re.compile(r"python -m repro ((?:[^`\n]|\n(?=\s*--))+)")


def documented_commands() -> list[tuple[str, list[str]]]:
    found = []
    for path in SOURCES:
        text = re.sub(r"\\\n\s*", " ", path.read_text())
        for match in COMMAND.finditer(text):
            argv = shlex.split(match.group(1), comments=True)
            # DESIGN.md's module map has a {a,b,...} synopsis line.
            if argv and not argv[0].startswith("{"):
                found.append((str(path.relative_to(ROOT)), argv))
    return found


def census_flows() -> list[tuple[str, list[str]]]:
    lines = (ROOT / "tools" / "census_flows.txt").read_text().splitlines()
    return [
        ("tools/census_flows.txt", shlex.split(line))
        for line in lines
        if line.strip() and not line.startswith("#")
    ]


def unparsable(commands):
    bad = []
    for source, argv in commands:
        try:
            build_parser().parse_args(argv)
        except SystemExit:
            bad.append(f"{source}: python -m repro {shlex.join(argv)}")
    return bad


@pytest.mark.parametrize(
    "commands", [documented_commands, census_flows], ids=["docs", "census"]
)
def test_commands_parse(commands):
    found = commands()
    assert len(found) >= 10
    assert unparsable(found) == []


def test_wrapped_command_is_read_whole():
    """The inline span in docs/cluster.md wraps onto a ``--`` line."""
    commands = [argv for _, argv in documented_commands()]
    assert [
        "serve-bench", "--cluster", "4", "--replicas", "3",
        "--skew", "1.1", "--loads", "64",
    ] in commands
