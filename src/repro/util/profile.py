"""Lightweight phase profiling for the perf-sensitive paths.

A :class:`Profiler` collects wall-clock time per named *phase*
(context-manager timers) plus free-form counters, so benchmark runs
can attribute an engine iteration to select/expand/playout/backprop
without any external tooling.  Instrumented code takes a profiler
argument defaulting to :data:`NULL_PROFILER`, whose phase context is a
reused constant and whose counters are dropped -- the disabled cost is
one attribute check per phase.

Used by ``python -m repro serve-bench --profile`` and the stack-grid
runner (``repro.harness.ablations.run_backend_ablation``, printed by
the ``backends`` gate of ``tests/gates/test_micro.py``) so future
performance PRs
have baseline phase breakdowns to compare against.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from repro.util.tables import format_table


@dataclass
class PhaseStats:
    """Accumulated timings of one named phase."""

    name: str
    calls: int = 0
    total_s: float = 0.0

    @property
    def mean_s(self) -> float:
        return self.total_s / self.calls if self.calls else 0.0


class _PhaseTimer:
    """Context manager adding one timed span to a phase."""

    __slots__ = ("_stats", "_t0")

    def __init__(self, stats: PhaseStats) -> None:
        self._stats = stats
        self._t0 = 0.0

    def __enter__(self) -> "_PhaseTimer":
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        self._stats.calls += 1
        self._stats.total_s += time.perf_counter() - self._t0


class _NullTimer:
    """No-op context manager shared by every disabled phase() call."""

    __slots__ = ()

    def __enter__(self) -> "_NullTimer":
        return self

    def __exit__(self, *exc) -> None:
        pass


_NULL_TIMER = _NullTimer()


@dataclass
class Profiler:
    """Per-phase wall timers and counters.

    ::

        prof = Profiler()
        with prof.phase("select"):
            ...
        prof.count("expansions", blocks)
        print(prof.render())
    """

    enabled: bool = True
    phases: dict[str, PhaseStats] = field(default_factory=dict)
    counters: dict[str, float] = field(default_factory=dict)

    def phase(self, name: str):
        """Timer context for one span of ``name``."""
        if not self.enabled:
            return _NULL_TIMER
        stats = self.phases.get(name)
        if stats is None:
            stats = PhaseStats(name)
            self.phases[name] = stats
        return _PhaseTimer(stats)

    def count(self, name: str, n: float = 1) -> None:
        """Add ``n`` to counter ``name``."""
        if self.enabled:
            self.counters[name] = self.counters.get(name, 0) + n

    def total_s(self, name: str) -> float:
        """Total seconds recorded for phase ``name`` (0 if unseen)."""
        stats = self.phases.get(name)
        return stats.total_s if stats else 0.0

    def render(self, title: str = "phase profile") -> str:
        """Human-readable table of phases then counters."""
        wall = sum(s.total_s for s in self.phases.values())
        rows = []
        for name in sorted(
            self.phases, key=lambda n: -self.phases[n].total_s
        ):
            stats = self.phases[name]
            share = stats.total_s / wall if wall > 0 else 0.0
            rows.append(
                [
                    name,
                    str(stats.calls),
                    f"{stats.total_s * 1e3:.2f}",
                    f"{stats.mean_s * 1e6:.1f}",
                    f"{share * 100:.1f}%",
                ]
            )
        for name in sorted(self.counters):
            rows.append(
                [f"#{name}", f"{self.counters[name]:g}", "", "", ""]
            )
        return format_table(
            ["phase", "calls", "total ms", "mean us", "share"],
            rows,
            title=title,
        )


#: Shared disabled profiler -- the default for instrumented code.
NULL_PROFILER = Profiler(enabled=False)
