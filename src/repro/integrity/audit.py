"""Integrity policy and the live tree-statistics audit.

The :class:`IntegrityPolicy` bundles the defense knobs one engine (or
the whole service) runs under: host-boundary result validation with a
bounded retry budget, the amortised per-tree audit cadence, and whether
audit violations quarantine the offending tree out of the root vote.
The default policy has every defense on; ``IntegrityPolicy.disabled()``
is the "no defenses" configuration the differential benchmark compares
against.

:func:`audit_root_stats` is the statistics half of the audit -- the
cheap invariants every clean tree satisfies regardless of backend
(wins bounded by visits, nothing negative or non-finite, root moves
drawn from the legal set).  The structural half (visit conservation,
child-span bookkeeping) lives with the backends: ``TreeArena.validate``
for the arena, a one-level walk for the pointer tree -- see
``audit_tree`` on ``TreeArena`` and ``SearchTree``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

#: Slack for float statistics comparisons (draws add 0.5 per playout).
_EPS = 1e-9
#: How many times a rejected kernel result is retried before the
#: engine degrades to a neutral (all-draws) batch.
MAX_RESULT_RETRIES = 3


@dataclass(frozen=True)
class IntegrityPolicy:
    """How hard one engine / service defends against silent corruption."""

    #: Validate every kernel result at the host boundary before it can
    #: touch a tree; rejects are retried (engines re-run the kernel, the
    #: serving launcher routes through its lost-result retry path).
    validate_results: bool = True
    #: Audit one tree's invariants every this-many iterations
    #: (round-robin over trees, so a full sweep costs one tree per
    #: audit).  0 disables the live audit.
    audit_every: int = 16
    #: Exclude trees that failed an audit from the root-vote
    #: aggregation.
    quarantine: bool = True

    def __post_init__(self) -> None:
        if self.audit_every < 0:
            raise ValueError(
                f"audit_every cannot be negative: {self.audit_every}"
            )

    @classmethod
    def disabled(cls) -> "IntegrityPolicy":
        """Every defense off -- what the differential benchmark runs to
        show the damage corruption does unchecked."""
        return cls(validate_results=False, audit_every=0, quarantine=False)

    @staticmethod
    def coerce(
        policy: "IntegrityPolicy | dict | None",
    ) -> "IntegrityPolicy":
        """Accept a policy, a kwargs dict, or None (-> defaults)."""
        if policy is None:
            return IntegrityPolicy()
        if isinstance(policy, IntegrityPolicy):
            return policy
        if isinstance(policy, dict):
            return replace(IntegrityPolicy(), **policy)
        raise TypeError(
            f"integrity policy must be an IntegrityPolicy, dict or "
            f"None, got {type(policy).__name__}: {policy!r}"
        )


def audit_root_stats(
    stats: "dict[int, tuple[float, float]]",
    legal_moves: "set[int] | frozenset[int] | None" = None,
) -> str | None:
    """Backend-neutral audit of one tree's root statistics.

    Checks, per root move: visits and wins finite, visits non-negative,
    wins within ``[0, visits]`` (the win-bound invariant -- draws count
    half, so wins can never exceed visits in a clean tree), and the
    move inside the root's legal set when one is given.  Returns a
    violation description, or None.
    """
    for move, (visits, wins) in stats.items():
        if not (math.isfinite(visits) and math.isfinite(wins)):
            return f"move {move}: non-finite statistics"
        if visits < 0:
            return f"move {move}: negative visits {visits}"
        if wins < -_EPS:
            return f"move {move}: negative wins {wins}"
        if wins > visits + _EPS:
            return (
                f"move {move}: wins {wins} exceed visits {visits}"
            )
        if legal_moves is not None and move not in legal_moves:
            return f"move {move} outside the root's legal set"
    return None
