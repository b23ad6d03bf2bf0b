"""The playout exports have two bodies (``playout.c``, "The two
bodies") and the library runs the one the loading CPU picks.  The
differential walls run as written on that body; their
``*_other_body.py`` twins run them again on the other one, pinned by
:func:`other_body` for the whole module."""

import pytest

from repro.compiled import kernel_body, unavailable_reason
from repro.compiled.build import kernel_bodies, pinned_kernel_body


@pytest.fixture(scope="module")
def other_body():
    """Pin the body the loading CPU did not pick, for one module; the
    pick is restored after it.  Skips where this host runs only one."""
    picked, runnable = kernel_body(), kernel_bodies()
    if len(runnable) < 2:
        pytest.skip(
            unavailable_reason() or f"this CPU runs only the {picked} body"
        )
    other = next(body for body in runnable if body != picked)
    with pinned_kernel_body(other):
        yield other
