"""Asynchronous streams and events against the virtual clock.

The hybrid CPU/GPU engine of the paper (Figure 4) launches the playout
kernel asynchronously, keeps iterating on the CPU, and polls for kernel
completion.  A :class:`Stream` reproduces that control flow: ``launch``
records a completion time on the virtual clock, the host keeps charging
its own work to the same clock, and ``query``/``synchronize`` behave
like ``cudaEventQuery``/``cudaEventSynchronize``.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Any

from repro.util.clock import Clock


@dataclass(frozen=True)
class Event:
    """Completion marker for asynchronously launched work."""

    done_at: float
    payload: Any = None


class StreamError(RuntimeError):
    """Raised on invalid stream use (overlapping launches, etc.)."""


@dataclass
class Stream:
    """An in-order work queue on a virtual device.

    One stream runs one kernel at a time (launching while the previous
    kernel is still in flight enqueues after it, like CUDA streams).
    It keeps only the events not yet complete: in order, completion
    times only rise, so the complete ones are a prefix, dropped as the
    clock passes them.
    """

    clock: Clock
    _busy_until: float = 0.0
    _events: deque = field(default_factory=deque)

    def launch(
        self,
        duration_s: float,
        payload: Any = None,
        not_before_s: float = 0.0,
    ) -> Event:
        """Enqueue ``duration_s`` of device work; returns its event.

        The host is *not* blocked: only the stream's internal timeline
        advances.  The kernel starts when the stream is free and the
        host has issued it (now, or at ``not_before_s`` if later --
        how a backed-off retry is scheduled onto a future instant).
        """
        if duration_s < 0:
            raise StreamError(
                f"kernel duration must be non-negative: {duration_s}"
            )
        start = max(self.clock.now, self._busy_until, not_before_s)
        event = Event(done_at=start + duration_s, payload=payload)
        self._busy_until = event.done_at
        self._drop_complete()
        self._events.append(event)
        return event

    def _drop_complete(self) -> None:
        events, now = self._events, self.clock.now
        while events and now >= events[0].done_at:
            events.popleft()

    def query(self, event: Event) -> bool:
        """Has the event completed at the current virtual time?
        (``cudaEventQuery`` -- non-blocking)."""
        return self.clock.now >= event.done_at

    def synchronize(self, event: Event) -> Any:
        """Block the host until the event completes: advances the
        virtual clock to the completion time if needed, then returns
        the payload."""
        self.clock.advance_to(event.done_at)
        return event.payload

    def synchronize_all(self) -> None:
        """Wait for everything in the stream."""
        self.clock.advance_to(self._busy_until)

    @property
    def busy(self) -> bool:
        return self.clock.now < self._busy_until

    @property
    def pending(self) -> int:
        """Number of launched events not yet complete."""
        self._drop_complete()
        return len(self._events)
