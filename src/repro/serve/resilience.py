"""Resilient kernel launching: timeouts, bounded retry, re-placement.

:class:`ResilientLauncher` wraps a :class:`~repro.gpu.lease.DevicePool`
with the failure-handling policy the serving stack needs to survive a
:class:`~repro.faults.FaultInjector`:

* every launch attempt carries a **timeout** proportional to its
  modelled duration -- a kernel whose results have not arrived by then
  (lost result, pathological stall) is abandoned;
* failed attempts are **retried with exponential backoff**, re-placed
  onto the least-busy *healthy* device (devices that just failed the
  same launch are avoided while alternatives exist);
* launch outcomes feed the pool's health tracking, so repeatedly
  failing devices are quarantined out of placement;
* a launch whose retry budget is exhausted is reported as **lost**,
  not raised -- callers degrade (drop the playout batch, reduce the
  request's effective budget) instead of failing the request.

All of it is modelled in virtual time: failed attempts still occupy
device streams for the spans the fault implies, backed-off retries are
issued at future virtual instants via ``not_before``, and the chain's
``ready_s`` is when the host either has the answer or gives up.

With no injector the launcher is a strict no-op wrapper: one attempt,
identical placement, identical spans -- a no-fault service run is
byte-identical to one built without the resilience layer.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from repro.faults import (
    KIND_CORRUPT_RESULT,
    KIND_LAUNCH_FAIL,
    KIND_LOST_RESULT,
    KIND_OUTAGE,
    KIND_STALL,
    FaultInjector,
)
from repro.gpu.device import DeviceSpec
from repro.gpu.lease import DeviceLease, DevicePool

#: ``duration_for`` callables map a device spec to the modelled kernel
#: duration on that device (re-placement may change the device).
DurationFor = Callable[[DeviceSpec], float]

#: Attempt fault marker for a stall the host abandoned at its timeout
#: (distinct from an absorbed stall, which still delivers).
KIND_TIMEOUT = "timeout"


#: Retries after the first attempt (total attempts = 1 + retries).
MAX_RETRIES = 3
#: First backoff delay; doubles (``BACKOFF_FACTOR``) per retry.
BACKOFF_BASE_S = 5e-6
BACKOFF_FACTOR = 2.0
BACKOFF_CAP_S = 1e-3
#: Per-launch timeout = max(MIN_TIMEOUT_S, duration * TIMEOUT_FACTOR).
TIMEOUT_FACTOR = 3.0
MIN_TIMEOUT_S = 1e-6
#: Host-side time to observe an immediate launch failure (the
#: failing driver call / unreachable device probe).
FAIL_DETECT_S = 2e-6


def timeout_s(duration_s: float) -> float:
    """When the host abandons a launch of modelled ``duration_s``."""
    return max(MIN_TIMEOUT_S, duration_s * TIMEOUT_FACTOR)


def backoff_s(retry_index: int) -> float:
    """Delay before retry ``retry_index + 1`` of one launch chain."""
    return min(BACKOFF_CAP_S, BACKOFF_BASE_S * BACKOFF_FACTOR**retry_index)


@dataclass(frozen=True)
class Attempt:
    """One try of a launch chain: where it ran and how it ended."""

    device_id: int
    start_s: float
    #: When the host knew the attempt's fate (completion or detection).
    detect_s: float
    #: Fault kind, or None for a clean attempt.
    fault: str | None = None

    @property
    def failed(self) -> bool:
        return self.fault is not None and self.fault != KIND_STALL


@dataclass(frozen=True)
class LaunchOutcome:
    """The result of one resilient launch chain."""

    holder: str
    label: str
    #: The successful placement, or None if the chain was lost.
    lease: DeviceLease | None
    attempts: tuple[Attempt, ...] = field(default_factory=tuple)
    #: When the host has the results (delivery) or gives up (loss).
    ready_s: float = 0.0

    @property
    def delivered(self) -> bool:
        return self.lease is not None

    @property
    def retries(self) -> int:
        return max(0, len(self.attempts) - 1)

    @property
    def wasted_wait_s(self) -> float:
        """Host time spent waiting on attempts that went nowhere."""
        return sum(
            a.detect_s - a.start_s for a in self.attempts if a.failed
        )


class ResilientLauncher:
    """Fault-aware placement of modelled kernels on a device pool."""

    def __init__(
        self,
        pool: DevicePool,
        injector: FaultInjector | None = None,
    ) -> None:
        self.pool = pool
        self.injector = injector
        #: Chain-level aggregates for service metrics.
        self.retries = 0
        self.failed_attempts = 0
        self.lost_launches = 0
        self.wasted_wait_s = 0.0
        #: Deliveries rejected by host-boundary result validation (the
        #: ``screen`` callback) and routed through the retry path.
        self.rejected_results = 0

    def _pick_device(self, avoid: set[int]) -> int:
        """Least-busy healthy device, avoiding ``avoid`` (the devices
        that already failed this chain) while alternatives exist."""
        healthy = self.pool.healthy_ids()
        candidates = [d for d in healthy if d not in avoid]
        if not candidates:
            candidates = healthy or list(range(len(self.pool)))
        return self.pool.least_busy(candidates)

    def launch(
        self,
        holder: str,
        duration_for: DurationFor,
        label: str = "kernel",
        screen: Callable[[], bool] | None = None,
        **trace_args,
    ) -> LaunchOutcome:
        """Run one launch chain to delivery or retry exhaustion.

        ``screen``, when given, is the host-boundary result validator:
        it is called once per *delivered* readback (clean attempts and
        absorbed stalls) and returns True to accept the results.  A
        False return means validation rejected the readback as corrupt
        -- the attempt is treated exactly like a lost result detected
        at delivery time: the lease is abandoned, the device is marked
        failed, and the chain retries with backoff on another device.
        """
        attempts: list[Attempt] = []
        avoid: set[int] = set()
        not_before = 0.0
        for attempt_idx in range(MAX_RETRIES + 1):
            device_id = self._pick_device(avoid)
            spec = self.pool.spec_of(device_id)
            duration = duration_for(spec)
            timeout = timeout_s(duration)
            issue = max(self.pool.clock.now, not_before)
            fault = (
                self.injector.launch_fault(device_id, issue)
                if self.injector is not None
                else None
            )
            retry_args = (
                {"attempt": attempt_idx} if attempt_idx else {}
            )

            if fault is not None and fault.kind in (
                KIND_LAUNCH_FAIL,
                KIND_OUTAGE,
            ):
                # Immediate failure at the launch API: no device span,
                # just the host-side detection marker.
                detect = issue + FAIL_DETECT_S
                self.pool.tracer.record(
                    f"{label}!{fault.kind}",
                    self.pool.track(device_id),
                    issue,
                    detect,
                    holder=holder,
                    fault=fault.kind,
                    attempt=attempt_idx,
                )
                attempts.append(
                    Attempt(device_id, issue, detect, fault.kind)
                )
            elif fault is not None and fault.kind == KIND_STALL:
                stalled = duration * fault.factor
                lease = self.pool.launch(
                    holder,
                    stalled,
                    device_id=device_id,
                    label=label,
                    not_before_s=not_before,
                    fault=KIND_STALL,
                    **retry_args,
                    **trace_args,
                )
                if stalled <= timeout:
                    if screen is None or screen():
                        # Latency spike absorbed within the timeout.
                        self.pool.mark_success(device_id)
                        attempts.append(
                            Attempt(
                                device_id,
                                lease.start_s,
                                lease.end_s,
                                KIND_STALL,
                            )
                        )
                        return self._done(
                            holder, label, lease, attempts, lease.end_s
                        )
                    # Delivered late *and* corrupt: reject at the
                    # delivery instant and retry.
                    self.pool.abandon(lease)
                    self.rejected_results += 1
                    attempts.append(
                        Attempt(
                            device_id,
                            lease.start_s,
                            lease.end_s,
                            KIND_CORRUPT_RESULT,
                        )
                    )
                else:
                    # Stalled past the timeout: abandon, re-place.  The
                    # device stays busy to the stall's end regardless.
                    detect = lease.start_s + timeout
                    self.pool.abandon(lease)
                    attempts.append(
                        Attempt(
                            device_id, lease.start_s, detect, KIND_TIMEOUT
                        )
                    )
            elif fault is not None and fault.kind == KIND_LOST_RESULT:
                # Kernel runs to completion; results never arrive.
                lease = self.pool.launch(
                    holder,
                    duration,
                    device_id=device_id,
                    label=label,
                    not_before_s=not_before,
                    fault=KIND_LOST_RESULT,
                    **retry_args,
                    **trace_args,
                )
                detect = lease.start_s + timeout
                self.pool.abandon(lease)
                attempts.append(
                    Attempt(
                        device_id, lease.start_s, detect, KIND_LOST_RESULT
                    )
                )
            else:
                lease = self.pool.launch(
                    holder,
                    duration,
                    device_id=device_id,
                    label=label,
                    not_before_s=not_before,
                    **retry_args,
                    **trace_args,
                )
                if screen is None or screen():
                    self.pool.mark_success(device_id)
                    attempts.append(
                        Attempt(device_id, lease.start_s, lease.end_s)
                    )
                    return self._done(
                        holder, label, lease, attempts, lease.end_s
                    )
                # The kernel ran and the host read its results back --
                # but validation rejected them.  Same shape as a lost
                # result detected at delivery: abandon and retry.
                self.pool.abandon(lease)
                self.rejected_results += 1
                attempts.append(
                    Attempt(
                        device_id,
                        lease.start_s,
                        lease.end_s,
                        KIND_CORRUPT_RESULT,
                    )
                )

            # Failed attempt: health, stats, backoff, re-place.
            self.pool.mark_failure(device_id)
            self.failed_attempts += 1
            avoid.add(device_id)
            not_before = attempts[-1].detect_s + backoff_s(attempt_idx)
            if attempt_idx < MAX_RETRIES:
                self.retries += 1

        self.lost_launches += 1
        return self._done(
            holder, label, None, attempts, attempts[-1].detect_s
        )

    def _done(
        self,
        holder: str,
        label: str,
        lease: DeviceLease | None,
        attempts: list[Attempt],
        ready_s: float,
    ) -> LaunchOutcome:
        outcome = LaunchOutcome(
            holder=holder,
            label=label,
            lease=lease,
            attempts=tuple(attempts),
            ready_s=ready_s,
        )
        self.wasted_wait_s += outcome.wasted_wait_s
        return outcome
