"""Shared low-level utilities: bit operations, virtual time, seeding, tables.

These are the foundations every other subpackage builds on.  Nothing in
here knows about games, GPUs or MCTS.
"""

from repro.util.bitops import (
    U64,
    bit_count,
    bit_count_u64,
    bits_of,
)
from repro.util.clock import Clock, ClockError
from repro.util.profile import NULL_PROFILER, PhaseStats, Profiler
from repro.util.seeding import SeedLadder, derive_seed
from repro.util.tables import format_series, format_table

__all__ = [
    "U64",
    "bit_count",
    "bit_count_u64",
    "bits_of",
    "Clock",
    "ClockError",
    "NULL_PROFILER",
    "PhaseStats",
    "Profiler",
    "SeedLadder",
    "derive_seed",
    "format_series",
    "format_table",
]
