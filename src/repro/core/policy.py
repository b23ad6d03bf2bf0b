"""In-flight accounting and final-move policies shared by trees and engines.

This module is the single home for the two policy axes every backend
must agree on: the *in-flight* accounting of shared-tree selections
(virtual loss or WU-UCT) and the *final* move-selection policy applied
to aggregated root statistics.  In-tree selection is the paper's UCB1
on every backend.  Both the pointer tree (:mod:`repro.core.tree`) and
the array arena (:mod:`repro.core.arena`) validate against the same
constants, so an engine cannot construct a tree with a mode the other
backend would reject.
"""

from __future__ import annotations

from typing import Mapping

#: Phantom-loss accounting: in-flight selections add losing visits to
#: both the mean and the exploration term (Chaslot et al.).
VLOSS = "vloss"
#: WU-UCT accounting: in-flight selections count as *unobserved*
#: samples -- they widen the exploration denominator but leave the
#: mean over completed playouts untouched (Liu et al., "Watch the
#: Unobserved").
WUCT = "wuct"

#: Supported in-flight accounting modes for shared-tree engines.
PARALLEL_MODES = (VLOSS, WUCT)


def validate_parallel_mode(mode: str) -> str:
    """Return ``mode`` if supported, raise ``ValueError`` otherwise."""
    if mode not in PARALLEL_MODES:
        raise ValueError(
            f"unknown parallel mode {mode!r}; "
            f"available: {PARALLEL_MODES}"
        )
    return mode


#: visits-based "robust child" -- the default, and what the paper's
#: root-style aggregation implies (sum visit counts, pick the max).
MAX_VISITS = "max_visits"
#: highest mean reward, guarded against tiny samples.
MAX_RATIO = "max_ratio"
#: highest raw win total.
MAX_WINS = "max_wins"

POLICIES = (MAX_VISITS, MAX_RATIO, MAX_WINS)


def select_move(
    stats: Mapping[int, tuple[float, float]],
    policy: str = MAX_VISITS,
    min_visits: float = 1.0,
) -> int:
    """Choose the move to play from per-move ``(visits, wins)`` stats.

    Ties break on the secondary statistic and then on the smallest move
    id, so selection is deterministic.
    """
    if not stats:
        raise ValueError("no move statistics to select from")
    if policy == MAX_VISITS:
        key = lambda m: (stats[m][0], stats[m][1], -m)  # noqa: E731
    elif policy == MAX_WINS:
        key = lambda m: (stats[m][1], stats[m][0], -m)  # noqa: E731
    elif policy == MAX_RATIO:

        def key(m):
            visits, wins = stats[m]
            ratio = wins / visits if visits >= min_visits else -1.0
            return (ratio, visits, -m)

    else:
        raise ValueError(
            f"unknown final-move policy {policy!r}; available: {POLICIES}"
        )
    return max(stats, key=key)
