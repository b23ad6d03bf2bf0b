"""The generator-stepping service tick: the oracle of the batched one.

The service once advanced every round-policy tenant by resuming its
engine's search generator (:func:`tests.round_steps.round_steps`) once
per tick: gather every tenant's requests, launch, then send each
tenant its answers -- the generator backs them up and runs on to its
next request before the next tenant is resumed.  :class:`ReferenceService` keeps that tick:
a :class:`SearchService` whose tenants are generators, its kernel
phase and completion step shared with the product's.  The product
tick selects its tenants' next rounds in batched sub-rounds instead
(``repro.core.rounds.advance_rounds``); ``test_batched_tick.py`` holds
every record it produces equal to this one's.
"""

from __future__ import annotations

from repro.serve import SearchService
from tests.round_steps import round_steps


class ReferenceService(SearchService):
    """A :class:`SearchService` that steps each tenant's generator."""

    def _open_tenant(self, rid, engine):
        gen = round_steps(engine)
        try:
            requests = list(next(gen))
        except StopIteration as stop:
            return stop.value
        self._tenants[rid] = [gen, requests]
        return None

    def _merged_tick(self) -> None:
        tenants = self._tenants
        answers_by_game, spans = self._launch_tick(
            (rid, requests) for rid, (_, requests) in tenants.items()
        )
        cpu_s = 0.0
        for rid, (game_name, lo, hi) in spans.items():
            slot = self._active[rid]
            gen = tenants[rid][0]
            before = slot.engine.clock.now
            try:
                tenants[rid][1] = list(
                    gen.send(answers_by_game[game_name][lo:hi])
                )
            except StopIteration as stop:
                del tenants[rid]
                slot.result = stop.value
            delta = slot.engine.clock.now - before
            cpu_s = max(cpu_s, slot.pending_cpu_s + delta)
            slot.pending_cpu_s = 0.0
        self._end_tick(cpu_s)
