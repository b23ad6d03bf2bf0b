"""Every documented ``python -m repro`` command line parses, and every
repository path the docs name exists.

The commands are read from README.md, docs/*.md, DESIGN.md,
benchmarks/REPORT_*.md and the CLI module's docstring (a trailing
``\\`` continues a command; an inline code span may wrap onto a line
that starts with ``--``), plus every line of tools/census_flows.txt.
Only the parser runs, so this is cheap; running the flows is
tools/census.py's job.  The paths are read from the same documents,
the CLI module aside.
"""

import re
import shlex
from pathlib import Path

import pytest

from repro.cli import build_parser

ROOT = Path(__file__).resolve().parent.parent
DOCS = [
    ROOT / "README.md",
    ROOT / "DESIGN.md",
    *sorted((ROOT / "docs").glob("*.md")),
    *sorted((ROOT / "benchmarks").glob("REPORT_*.md")),
]
SOURCES = [*DOCS, ROOT / "src" / "repro" / "cli.py"]
COMMAND = re.compile(r"python -m repro ((?:[^`\n]|\n(?=\s*--))+)")
#: A repository path: a top-level directory, then anything up to a
#: space, quote, bracket, ``::`` or list punctuation; a glob (``*``) or
#: a ``{a,b}`` brace group, which may wrap onto the next line, may be
#: part of it.
REPO_PATH = re.compile(
    r"(?<![\w./-])(?:benchmarks|perfbench|src|tests|tools)/"
    r"(?:[^\s`'\"()<>:,;|\]{]|\{[^}]*\})*"
)


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


def documented_paths() -> list[tuple[str, str]]:
    return [
        (str(path.relative_to(ROOT)), match.group(0).rstrip("./"))
        for path in DOCS
        for match in REPO_PATH.finditer(path.read_text())
    ]


def expand(pattern: str) -> list[str]:
    """``a/{b,c}.py`` -> ``a/b.py``, ``a/c.py``."""
    brace = re.search(r"\{([^}]*)\}", pattern)
    if brace is None:
        return [pattern]
    head, tail = pattern[: brace.start()], pattern[brace.end() :]
    alts = [alt.strip() for alt in brace.group(1).split(",")]
    return [p for alt in alts for p in expand(head + alt + tail)]


def missing_paths(found):
    return [
        f"{source}: {path}"
        for source, path in found
        if not all(any(ROOT.glob(p)) for p in expand(path))
    ]


def test_documented_paths_exist():
    found = documented_paths()
    assert len(found) >= 50
    assert missing_paths(found) == []
    assert missing_paths([("README.md", "tests/gates/bench_micro.py")])
