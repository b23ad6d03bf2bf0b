"""A round policy stepped as a generator: the reference drivers' seam.

The engines once ran their round policies as generators that yielded
each round's playout requests and took the answers back via ``send``.
The product advances rounds through ``repro.core.rounds`` instead; the
reference drivers kept under ``tests/`` (the per-tenant service tick,
the per-mover cohort) still step this generator, one session at a time,
on the policies' Python bodies: a ``root:N`` or ``sequential`` session
runs ``RootRound`` / ``SequentialRound`` here on a compiled arena too,
where the product runs its select loop in the kernel.
"""

from __future__ import annotations


def round_steps(engine):
    """``engine``'s live session as a generator: one yield per playout
    demand, the answers delivered as they come back; returns the
    search result.  Externally driven sessions only (no screening)."""
    rnd = engine.round_policy(engine)
    assert rnd.screen is None
    while rnd.select():
        answers = yield rnd.requests
        if len(answers) != len(rnd.requests):
            raise ValueError(
                f"{len(answers)} playout answers for "
                f"{len(rnd.requests)} requests"
            )
        rnd.deliver(answers)
    return rnd.finish()
