"""The call census (tools/census.py) on a toy package.

The toy has a called function, one that is never called, a list
comprehension (inside the never-called function, so a census that
counted comprehensions would report it too) and a decorator that runs
at import time.  Exactly the never-called function must be reported,
and the kept-list ratchet must refuse it unlisted and refuse a listed
function that is entered or gone.
"""

import importlib
import importlib.util
import sys
import textwrap
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

TOY = '''
REGISTRY = []


def register(fn):
    REGISTRY.append(fn.__name__)
    return fn


@register
def called(n):
    return n + 1


def never_called(n):
    return [i * i for i in range(n)]
'''


@pytest.fixture
def census():
    spec = importlib.util.spec_from_file_location(
        "census", ROOT / "tools" / "census.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def toy_package(tmp_path):
    package = tmp_path / "census_toy"
    package.mkdir()
    (package / "__init__.py").write_text("")
    (package / "mod.py").write_text(textwrap.dedent(TOY))
    sys.path.insert(0, str(tmp_path))
    yield package
    sys.path.remove(str(tmp_path))
    for name in ("census_toy", "census_toy.mod"):
        sys.modules.pop(name, None)


def test_reports_exactly_the_never_called_function(census, toy_package):
    with census.record() as entered:
        mod = importlib.import_module("census_toy.mod")
        assert mod.called(1) == 2
    assert mod.REGISTRY == ["called"]
    functions = census.walk(toy_package)
    assert sorted(code.co_name for code in functions) == [
        "called", "never_called", "register",
    ]
    missed = census.never_entered(functions, entered)
    assert [code.co_name for code in missed] == ["never_called"]


def test_walk_compiles_without_importing(census, toy_package):
    census.walk(toy_package)
    assert "census_toy.mod" not in sys.modules


def test_record_restores_the_previous_tracer(census):
    before = sys.gettrace()
    with census.record():
        pass
    assert sys.gettrace() is before


def toy_census(census, toy_package):
    with census.record() as entered:
        importlib.import_module("census_toy.mod").called(1)
    functions = census.walk(toy_package)
    return functions, census.never_entered(functions, entered)


def test_ratchet_refuses_an_unlisted_function(census, toy_package):
    functions, missed = toy_census(census, toy_package)
    root = toy_package.parent
    listed = ("census_toy/mod.py", "never_called")
    assert census.ratchet(functions, missed, {listed}, root) == ([], [])
    assert census.ratchet(functions, missed, set(), root) == ([listed], [])


def test_ratchet_refuses_a_stale_entry(census, toy_package):
    functions, missed = toy_census(census, toy_package)
    kept = {
        ("census_toy/mod.py", "never_called"),
        ("census_toy/mod.py", "called"),
        ("census_toy/mod.py", "deleted_since"),
    }
    assert census.ratchet(functions, missed, kept, toy_package.parent) == (
        [],
        [
            ("census_toy/mod.py", "called", "entered"),
            ("census_toy/mod.py", "deleted_since", "gone"),
        ],
    )


def test_every_kept_entry_names_a_function_in_src(census):
    """The cheap half of the ratchet: a cut that leaves its kept-list
    line behind fails here, without running the flows."""
    functions = census.walk(ROOT / "src" / "repro")
    kept = census.read_kept(census.KEPT)
    # As if no flow entered anything: only a missing function is stale.
    _, gone = census.ratchet(functions, functions, kept, ROOT)
    assert gone == []
