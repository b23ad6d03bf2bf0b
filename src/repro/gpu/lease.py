"""Shared-device pool: placement, leases, health and utilisation.

The serving layer (:mod:`repro.serve`) multiplexes many concurrent
searches over a fixed set of virtual GPUs.  A :class:`DevicePool` owns
one in-order :class:`~repro.gpu.stream.Stream` per device against a
shared clock and hands out work placements:

* :meth:`DevicePool.launch` enqueues one modelled kernel on the least
  loaded device (earliest ``busy_until``) and returns a
  :class:`DeviceLease` -- the accounting record tying the span to the
  request that caused it.
* Every launch is recorded as a span on the pool's
  :class:`~repro.gpu.trace.Tracer` (track ``gpu<i>``), so a service
  run exports directly to the Chrome trace viewer and utilisation is
  just busy-time over elapsed-time per track.
* Devices carry *health*: callers report launch outcomes via
  :meth:`mark_failure`/:meth:`mark_success`, and a device whose
  consecutive failures reach the quarantine threshold is taken out of
  :meth:`least_busy` placement for a cooldown window -- how the
  resilient scheduler steers retries away from flaky or dead devices.
* Every lease must eventually be *resolved* -- synchronised, observed
  complete, or explicitly abandoned.  :meth:`assert_drained` enforces
  the invariant at service drain; an unresolved lease means a caller
  leaked busy-time accounting.

The pool does not execute playouts itself -- callers compute results
and modelled durations (see :mod:`repro.serve.scheduler`) and the pool
decides *where* and *when* the work runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from repro.gpu.device import DeviceSpec
from repro.gpu.stream import Event, Stream
from repro.gpu.trace import Tracer
from repro.util.clock import Clock


class PoolError(RuntimeError):
    """Raised on invalid pool use (empty pool, foreign lease, ...)."""


@dataclass(frozen=True)
class DeviceLease:
    """One placed piece of work: who runs what on which device."""

    device_id: int
    spec: DeviceSpec
    holder: str
    start_s: float
    event: Event
    #: Pool-wide launch sequence number; resolution is tracked by id.
    lease_id: int = 0

    @property
    def end_s(self) -> float:
        return self.event.done_at

    @property
    def duration_s(self) -> float:
        return self.end_s - self.start_s


@dataclass
class _DeviceSlot:
    """Mutable per-device bookkeeping."""

    device_id: int
    spec: DeviceSpec
    stream: Stream
    busy_s: float = 0.0
    launches: int = 0
    #: Health tracking for quarantine decisions.
    failures: int = 0
    successes: int = 0
    consecutive_failures: int = 0
    quarantined_until: float = 0.0
    quarantines: int = 0
    #: Elastic-fleet state (autoscaling, docs/overload.md): a
    #: provisioned device only accepts placements once its modelled
    #: bring-up lag has elapsed; a retired device accepts no new
    #: placements but drains its in-flight stream.
    available_after_s: float = 0.0
    retired: bool = False

    @property
    def busy_until(self) -> float:
        return self.stream._busy_until


class DevicePool:
    """A fixed set of virtual GPUs shared by many requests.

    ``quarantine_after`` consecutive launch failures on one device put
    it in quarantine for ``quarantine_s`` virtual seconds; quarantined
    devices are skipped by default placement until the window expires
    (or every device is quarantined, in which case placement falls
    back to the full pool rather than deadlocking).
    """

    def __init__(
        self,
        specs: Sequence[DeviceSpec],
        clock: Clock,
        tracer: Tracer | None = None,
        quarantine_after: int = 3,
        quarantine_s: float = 1e-3,
    ) -> None:
        if not specs:
            raise PoolError("device pool needs at least one device")
        if quarantine_after <= 0:
            raise PoolError(
                f"quarantine_after must be positive: {quarantine_after}"
            )
        if quarantine_s < 0:
            raise PoolError(
                f"quarantine_s cannot be negative: {quarantine_s}"
            )
        self.clock = clock
        self.tracer = tracer if tracer is not None else Tracer()
        self.quarantine_after = quarantine_after
        self.quarantine_s = quarantine_s
        self._slots = [
            _DeviceSlot(i, spec, Stream(clock))
            for i, spec in enumerate(specs)
        ]
        #: Leases no caller has resolved yet, by id, in issue order;
        #: a resolved lease is forgotten.
        self._unresolved: dict[int, DeviceLease] = {}
        self._issued = 0

    def __len__(self) -> int:
        return len(self._slots)

    def track(self, device_id: int) -> str:
        """Tracer track name for one device."""
        return f"gpu{device_id}"

    def least_busy(
        self, candidates: Iterable[int] | None = None
    ) -> int:
        """Device id whose stream frees up first (ties: lowest id).

        With no ``candidates``, quarantined devices are skipped unless
        *every* device is quarantined.  An explicit candidate list is
        used verbatim.
        """
        if candidates is None:
            ids = (
                self.healthy_ids()
                or self.placeable_ids()
                or range(len(self._slots))
            )
        else:
            ids = list(candidates)
            if not ids:
                raise PoolError("least_busy over no candidate devices")
        return min(
            (self._slot(i) for i in ids),
            key=lambda s: (s.busy_until, s.device_id),
        ).device_id

    def spec_of(self, device_id: int) -> DeviceSpec:
        return self._slot(device_id).spec

    def _slot(self, device_id: int) -> _DeviceSlot:
        try:
            return self._slots[device_id]
        except IndexError:
            raise PoolError(
                f"no device {device_id} in a pool of {len(self)}"
            ) from None

    def launch(
        self,
        holder: str,
        duration_s: float,
        device_id: int | None = None,
        label: str = "kernel",
        not_before_s: float = 0.0,
        **trace_args,
    ) -> DeviceLease:
        """Enqueue ``duration_s`` of device work for ``holder``.

        Placed on ``device_id`` if given, otherwise on the least busy
        healthy device.  The kernel starts when that device's stream is
        free (and ``not_before_s`` has passed); the host is not blocked
        (synchronise via ``lease.event``).
        """
        if device_id is None:
            device_id = self.least_busy()
        slot = self._slot(device_id)
        start = max(self.clock.now, slot.busy_until, not_before_s)
        event = slot.stream.launch(duration_s, not_before_s=not_before_s)
        slot.busy_s += duration_s
        slot.launches += 1
        lease = DeviceLease(
            device_id=slot.device_id,
            spec=slot.spec,
            holder=holder,
            start_s=start,
            event=event,
            lease_id=self._issued,
        )
        self._issued += 1
        self._unresolved[lease.lease_id] = lease
        self.tracer.record(
            label,
            self.track(slot.device_id),
            start,
            event.done_at,
            holder=holder,
            **trace_args,
        )
        return lease

    def synchronize(self, lease: DeviceLease) -> None:
        """Block the host (advance the clock) until the lease's work
        completes."""
        self._slot(lease.device_id).stream.synchronize(lease.event)
        self._unresolved.pop(lease.lease_id, None)

    def complete(self, lease: DeviceLease) -> bool:
        """Has the lease's work finished at the current time?"""
        done = self._slot(lease.device_id).stream.query(lease.event)
        if done:
            self._unresolved.pop(lease.lease_id, None)
        return done

    def abandon(self, lease: DeviceLease) -> None:
        """Resolve a lease the host will never wait on (timed-out or
        failed attempt).  The device span stays on the books -- the
        kernel still occupied the stream -- but the host stops
        tracking it."""
        self._unresolved.pop(lease.lease_id, None)

    # -- health ------------------------------------------------------------

    def mark_failure(self, device_id: int) -> bool:
        """Record a failed launch attempt; returns True if the device
        just entered quarantine."""
        slot = self._slot(device_id)
        slot.failures += 1
        slot.consecutive_failures += 1
        if (
            slot.consecutive_failures >= self.quarantine_after
            and not self.is_quarantined(device_id)
        ):
            slot.quarantined_until = self.clock.now + self.quarantine_s
            slot.quarantines += 1
            slot.consecutive_failures = 0
            return True
        return False

    def mark_success(self, device_id: int) -> None:
        """Record a successful launch; clears the failure streak."""
        slot = self._slot(device_id)
        slot.successes += 1
        slot.consecutive_failures = 0

    def is_quarantined(self, device_id: int) -> bool:
        return self.clock.now < self._slot(device_id).quarantined_until

    def healthy_ids(self) -> list[int]:
        """Devices currently accepting placements."""
        return [
            device_id
            for device_id in self.placeable_ids()
            if not self.is_quarantined(device_id)
        ]

    # -- elastic fleet (autoscaling) ---------------------------------------

    def placeable_ids(self) -> list[int]:
        """Devices in the active fleet: provisioned (bring-up lag has
        elapsed) and not retired.  Quarantine is ignored here -- it is
        a *health* veto layered on top by :meth:`healthy_ids`."""
        now = self.clock.now
        return [
            slot.device_id
            for slot in self._slots
            if not slot.retired and slot.available_after_s <= now
        ]

    def active_size(self) -> int:
        """Fleet size the autoscaler reasons about: placeable devices
        plus ones still inside their bring-up lag (already paid for,
        not yet accepting work) -- everything except retirees."""
        return sum(1 for slot in self._slots if not slot.retired)

    def provision(
        self, spec: DeviceSpec, available_s: float | None = None
    ) -> int:
        """Add one device to the pool; it starts accepting placements
        at ``available_s`` (defaults to *now*).  Scale-up lag is how
        flash crowds hurt: capacity requested at the spike's onset
        only arrives once the modelled bring-up completes.  Returns
        the new device id."""
        available = self.clock.now if available_s is None else available_s
        if available < self.clock.now:
            raise PoolError(
                f"cannot provision into the past: {available} < "
                f"{self.clock.now}"
            )
        slot = _DeviceSlot(
            len(self._slots),
            spec,
            Stream(self.clock),
            available_after_s=available,
        )
        self._slots.append(slot)
        return slot.device_id

    def retire(self, device_id: int) -> None:
        """Remove one device from placement.  In-flight work on its
        stream drains normally (leases stay resolvable) but
        :meth:`least_busy` never picks it again.  Idempotent."""
        self._slot(device_id).retired = True

    def is_retired(self, device_id: int) -> bool:
        return self._slot(device_id).retired

    def available_after(self, device_id: int) -> float:
        return self._slot(device_id).available_after_s

    def health(self, device_id: int) -> dict[str, int]:
        """Observed launch outcomes for one device."""
        slot = self._slot(device_id)
        return {
            "failures": slot.failures,
            "successes": slot.successes,
            "quarantines": slot.quarantines,
        }

    # -- accounting --------------------------------------------------------

    def busy_seconds(self, device_id: int) -> float:
        return self._slot(device_id).busy_s

    def launches(self, device_id: int) -> int:
        return self._slot(device_id).launches

    @property
    def unresolved_leases(self) -> tuple[DeviceLease, ...]:
        """Leases no caller has synchronised, completed or abandoned,
        in issue order."""
        return tuple(self._unresolved.values())

    def assert_drained(self) -> None:
        """Raise if any lease was never resolved -- the caller leaked
        busy-time accounting (launched work it never waited on)."""
        leaked = self.unresolved_leases
        if leaked:
            holders = sorted({lease.holder for lease in leaked})
            raise PoolError(
                f"{len(leaked)} unresolved lease(s) at drain "
                f"(holders: {', '.join(holders)}); every launch must "
                "be synchronized, completed or abandoned"
            )

    def utilization(self, elapsed_s: float | None = None) -> dict[str, float]:
        """Busy fraction per device track over ``elapsed_s`` (defaults
        to the clock's current time)."""
        horizon = self.clock.now if elapsed_s is None else elapsed_s
        out = {}
        for slot in self._slots:
            track = self.track(slot.device_id)
            if horizon <= 0:
                out[track] = 0.0
            else:
                out[track] = min(
                    1.0, self.tracer.track_busy_time(track) / horizon
                )
        return out
