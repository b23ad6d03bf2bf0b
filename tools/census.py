"""Call census: which functions in ``src/repro`` do the documented flows enter?

Runs every ``python -m repro`` command line in ``tools/census_flows.txt``
and every ``examples/*.py`` in this process under one global
``sys.settrace`` that records each code object on its call event (no
line tracing), then walks every module under ``src/repro`` -- compiled
from source, not imported -- and prints the functions no flow entered,
grouped by file.  A flow that raises still counts as run.  Flow and
example output is discarded; journals and trace files go to a temporary
directory (``{tmp}`` in a flow line).

The census is a ratchet: every never-entered function must be listed,
with the reason it is kept, in ``tools/census_kept.txt``, and every
listed one must still exist and still be entered by no flow.  It exits
1 otherwise, naming each function to list, cut or unlist.

    python tools/census.py
"""

from __future__ import annotations

import contextlib
import io
import os
import runpy
import shlex
import sys
import tempfile
import time
from collections import defaultdict
from functools import partial
from inspect import CO_OPTIMIZED
from pathlib import Path
from types import CodeType

ROOT = Path(__file__).resolve().parent.parent
FLOWS = Path(__file__).resolve().parent / "census_flows.txt"
KEPT = Path(__file__).resolve().parent / "census_kept.txt"
SKIPPED = {"<listcomp>", "<dictcomp>", "<setcomp>", "<genexpr>"}


def key(code: CodeType) -> tuple[str, int, str]:
    """Identity across the walk's and the import's separate compiles."""
    return os.path.realpath(code.co_filename), code.co_firstlineno, code.co_name


def last_line(code: CodeType) -> int:
    return max(
        [line for _, _, line in code.co_lines() if line is not None]
        + [code.co_firstlineno]
    )


def walk(package: Path) -> list[CodeType]:
    """Every function code object under ``package``, comprehensions excluded."""
    found: list[CodeType] = []

    def visit(code: CodeType) -> None:
        if code.co_flags & CO_OPTIMIZED and code.co_name not in SKIPPED:
            found.append(code)
        for const in code.co_consts:
            if isinstance(const, CodeType):
                visit(const)

    for path in sorted(package.rglob("*.py")):
        visit(compile(path.read_text(), os.path.realpath(path), "exec"))
    return found


def never_entered(
    functions: list[CodeType], entered: set[CodeType]
) -> list[CodeType]:
    seen = {key(code) for code in entered}
    return [code for code in functions if key(code) not in seen]


def qualname(code: CodeType) -> str:
    return getattr(code, "co_qualname", code.co_name)


def read_kept(path: Path) -> set[tuple[str, str]]:
    """The ``(path, qualname)`` pairs of a kept list: one pair per
    line, under ``#`` reason lines that group them."""
    kept = set()
    for line in path.read_text().splitlines():
        line = line.strip()
        if line and not line.startswith("#"):
            file, name = line.split()
            kept.add((file, name))
    return kept


def ratchet(
    functions: list[CodeType],
    missed: list[CodeType],
    kept: set[tuple[str, str]],
    root: Path,
) -> tuple[list[tuple[str, str]], list[tuple[str, str, str]]]:
    """``(unlisted, stale)``: the never-entered functions ``kept``
    lacks, and the kept entries that a flow now enters or that no
    longer exist (each with ``"entered"`` or ``"gone"``)."""

    def names(codes):
        return {
            (os.path.relpath(code.co_filename, root), qualname(code))
            for code in codes
        }

    missed_names, existing = names(missed), names(functions)
    unlisted = sorted(missed_names - kept)
    stale = sorted(
        (file, name, "entered" if (file, name) in existing else "gone")
        for file, name in kept - missed_names
    )
    return unlisted, stale


@contextlib.contextmanager
def record():
    """Collect every code object called while the block runs."""
    entered: set[CodeType] = set()

    def tracer(frame, event, arg):
        if event == "call":
            entered.add(frame.f_code)

    previous = sys.gettrace()
    sys.settrace(tracer)
    try:
        yield entered
    finally:
        sys.settrace(previous)


def run_flows(tmp: str) -> None:
    from repro.cli import main as repro_main

    lines = [line.strip() for line in FLOWS.read_text().splitlines()]
    jobs = [
        (line, partial(repro_main, shlex.split(line.replace("{tmp}", tmp))))
        for line in lines
        if line and not line.startswith("#")
    ] + [
        (
            f"examples/{path.name}",
            partial(runpy.run_path, str(path), run_name="__main__"),
        )
        for path in sorted((ROOT / "examples").glob("*.py"))
    ]
    for label, job in jobs:
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(io.StringIO()):
            try:
                job()
            except (Exception, SystemExit) as exc:  # still counts as run
                label += f"  [raised {type(exc).__name__}: {exc}]"
        print(f"  {time.perf_counter() - t0:7.1f}s  {label}", file=sys.stderr)


def main() -> int:
    t0 = time.perf_counter()
    sys.path.insert(0, str(ROOT / "src"))
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp, record() as entered:
        os.chdir(tmp)
        try:
            run_flows(tmp)
        finally:
            os.chdir(cwd)
    functions = walk(ROOT / "src" / "repro")
    missed = never_entered(functions, entered)
    lines = {
        (code.co_filename, n)
        for code in missed
        for n in range(code.co_firstlineno, last_line(code) + 1)
    }
    print(f"entered {len(functions) - len(missed)} / {len(functions)} functions")
    print(f"never-entered {len(missed)} ({len(lines)} lines)")
    by_file: dict[str, list[CodeType]] = defaultdict(list)
    for code in missed:
        by_file[os.path.relpath(code.co_filename, ROOT)].append(code)
    for path in sorted(by_file):
        print(path)
        for code in by_file[path]:
            print(f"  {code.co_firstlineno:5d}  {qualname(code)}")
    unlisted, stale = ratchet(functions, missed, read_kept(KEPT), ROOT)
    for file, name in unlisted:
        print(f"never entered and not on {KEPT.name}: {file}  {name}")
    for file, name, why in stale:
        print(f"on {KEPT.name} but {why}: {file}  {name}")
    print(f"took {time.perf_counter() - t0:.0f}s wall", file=sys.stderr)
    return 1 if unlisted or stale else 0


if __name__ == "__main__":
    sys.exit(main())
