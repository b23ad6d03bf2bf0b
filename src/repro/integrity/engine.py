"""Per-search integrity bookkeeping shared by the multi-tree engines.

One :class:`IntegrityState` lives inside an engine's search session
(created only when a :class:`~repro.faults.FaultInjector` is attached
-- without one the engines skip every integrity code path, which is the
no-injector bit-identity guarantee).  It owns the three ensemble
defenses and their counters:

* **screening** -- applies the injector's corruption decision to a
  kernel result copy, then validates it against the host-boundary
  contract; the engine retries rejected results and degrades to a
  neutral batch when the retry budget runs out;
* **poison + audit + quarantine** -- applies the scheduled
  ``poison=tree:K`` fault, runs the amortised round-robin invariant
  audit (one tree per audit point, plus a final sweep before the
  vote), and tracks which trees are excluded from aggregation;
* **accounting** -- everything surfaces in the engine's result extras
  and rides checkpoints via ``getstate``/``setstate``.
"""

from __future__ import annotations

from repro.integrity.audit import IntegrityPolicy
from repro.integrity.corruption import (
    apply_answer_corruption,
    apply_block_corruption,
    validate_answers,
    validate_winners,
)


class IntegrityState:
    """Defense state for one search session under fault injection."""

    def __init__(self, policy, injector, n_trees: int) -> None:
        self.policy = IntegrityPolicy.coerce(policy)
        self.injector = injector
        self.n_trees = n_trees
        self.quarantined: set[int] = set()
        self.audits = 0
        self.violations = 0
        self.detected = 0
        self.escaped = 0
        self.dropped_batches = 0
        self.poisoned = 0
        self._audit_cursor = 0

    # -- kernel result screening ------------------------------------------

    def screen_block(self, winners, blocks: int, threads_per_block: int):
        """Corrupt (per the injector's decision) then validate one
        kernel's flat winners array.  Returns ``(winners, ok)``; on a
        reject the engine retries the kernel or gives up."""
        corruption = self.injector.result_corruption(winners.shape[0])
        if corruption is not None:
            winners = apply_block_corruption(
                winners, blocks, threads_per_block, corruption
            )
        if self.policy.validate_results:
            if validate_winners(winners) is not None:
                self.detected += 1
                return winners, False
        if corruption is not None:
            self.escaped += 1
        return winners, True

    def screen_answers(self, answers):
        """The per-lane ``(winner, plies)`` counterpart of
        :meth:`screen_block` for a CPU round's playout answers."""
        corruption = self.injector.result_corruption(len(answers))
        if corruption is not None:
            answers = apply_answer_corruption(answers, corruption)
        if self.policy.validate_results:
            if validate_answers(answers) is not None:
                self.detected += 1
                return answers, False
        if corruption is not None:
            self.escaped += 1
        return answers, True

    def give_up(self) -> None:
        """Record one batch degraded to neutral results after the
        reject-retry budget ran out."""
        self.dropped_batches += 1

    # -- poison / audit / quarantine ---------------------------------------

    def poison(self, forest, bonus: float) -> None:
        """Apply the scheduled ``poison=tree:K`` fault, if any."""
        k = self.injector.poison_tree
        if (
            k is not None
            and k < self.n_trees
            and forest.poison_root(k, bonus)
        ):
            self.injector.poison_applied()
            self.poisoned += 1

    def audit(self, forest, iterations: int) -> str | None:
        """Amortised live audit: every ``audit_every`` iterations,
        check one tree's invariants (round-robin, so a full sweep
        costs one tree per audit point)."""
        every = self.policy.audit_every
        if not every or iterations % every:
            return None
        t = self._audit_cursor % self.n_trees
        self._audit_cursor += 1
        return self._audit_one(forest, t)

    def final_sweep(self, forest) -> None:
        """Audit every not-yet-quarantined tree once before the final
        vote -- a short search must not dodge detection just because
        the round-robin never reached the corrupted tree."""
        if not self.policy.audit_every:
            return
        for t in range(self.n_trees):
            if t not in self.quarantined:
                self._audit_one(forest, t)

    def _audit_one(self, forest, t: int) -> str | None:
        self.audits += 1
        reason = forest.audit_tree(t)
        if reason is not None:
            self.violations += 1
            if self.policy.quarantine:
                self.quarantined.add(t)
        return reason

    def keep_indices(self) -> "list[int] | None":
        """Tree indices admitted to the root vote: None (= all trees,
        the untouched fast path) when nothing is quarantined -- or
        when *everything* is, because an empty vote would be worse
        than a suspect one."""
        if not self.quarantined or len(self.quarantined) >= self.n_trees:
            return None
        return [
            i for i in range(self.n_trees) if i not in self.quarantined
        ]

    # -- accounting / checkpointing ----------------------------------------

    def extras(self) -> dict:
        """Counters for the engine's result extras (flat canonical
        ``integrity.*`` keys, declared in
        ``repro.core.results.INTEGRITY_EXTRA_KEYS``)."""
        return {
            "integrity.detected": self.detected,
            "integrity.escaped": self.escaped,
            "integrity.dropped_batches": self.dropped_batches,
            "integrity.poisoned": self.poisoned,
            "integrity.audits": self.audits,
            "integrity.violations": self.violations,
            "integrity.quarantined": sorted(self.quarantined),
        }

    def getstate(self) -> dict:
        return {
            "quarantined": sorted(self.quarantined),
            "audits": self.audits,
            "violations": self.violations,
            "detected": self.detected,
            "escaped": self.escaped,
            "dropped_batches": self.dropped_batches,
            "poisoned": self.poisoned,
            "audit_cursor": self._audit_cursor,
        }

    def setstate(self, state: dict) -> None:
        self.quarantined = set(state["quarantined"])
        self.audits = state["audits"]
        self.violations = state["violations"]
        self.detected = state["detected"]
        self.escaped = state["escaped"]
        self.dropped_batches = state["dropped_batches"]
        self.poisoned = state["poisoned"]
        self._audit_cursor = state["audit_cursor"]
