"""Virtual time.

Every engine in this reproduction runs against a :class:`Clock` instead
of the wall clock.  Components *charge* modelled durations to the clock
(a CPU iteration, a GPU kernel, an MPI collective) and budgets are
expressed in virtual seconds.  This keeps experiments deterministic and
laptop-scale while preserving the relative-throughput shapes the paper's
figures report (see DESIGN.md section 5).
"""

from __future__ import annotations


class ClockError(RuntimeError):
    """Raised on invalid clock manipulation (negative advance, etc.)."""


class Clock:
    """A monotonically advancing virtual clock.

    Parameters
    ----------
    start:
        Initial time in virtual seconds.
    """

    __slots__ = ("_now",)

    def __init__(self, start: float = 0.0) -> None:
        if start < 0.0:
            raise ClockError(f"clock cannot start in the past: {start}")
        self._now = float(start)

    @property
    def now(self) -> float:
        """Current virtual time in seconds."""
        return self._now

    def advance(self, dt: float) -> float:
        """Advance the clock by ``dt`` seconds and return the new time."""
        if dt < 0.0:
            raise ClockError(f"cannot advance by a negative duration: {dt}")
        self._now += dt
        return self._now

    def advance_to(self, t: float) -> float:
        """Jump forward to absolute time ``t`` (no-op if already past)."""
        if t > self._now:
            self._now = t
        return self._now

    def reset(self, start: float = 0.0) -> None:
        """Rewind the clock (only meaningful between experiments)."""
        if start < 0.0:
            raise ClockError(f"clock cannot reset into the past: {start}")
        self._now = float(start)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Clock(now={self._now:.9f})"
