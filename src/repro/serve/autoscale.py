"""SLO-driven autoscaling of the virtual device fleet.

:class:`Autoscaler` grows/shrinks one service's
:class:`~repro.gpu.lease.DevicePool` against a per-class latency SLO
(docs/overload.md).  Decisions are taken at most once per
``INTERVAL_S`` of virtual time; a scale-up provisions devices that
only start accepting placements after ``scaleup_lag_s`` (modelled
bring-up: capacity requested at a flash crowd's onset arrives
mid-storm, not instantly), and a scale-down retires the
highest-numbered device (no new placements; its in-flight stream
drains).  A ``COOLDOWN_S`` after every decision keeps the loop from
thrashing against its own transient.

The loop is a pure function of observations on the virtual clock, so
autoscaled storm runs replay bit-identically.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.gpu.device import DeviceSpec
from repro.gpu.lease import DevicePool
from repro.util.coerce import coerce_optional


#: The fleet never shrinks below this many devices.
MIN_DEVICES = 1
#: Scale up when the windowed p99 latency/deadline ratio exceeds
#: this (1.0 = p99 exactly at the deadline).
TARGET_RATIO = 0.8
#: ... or when the queue fraction exceeds this.
QUEUE_HIGH = 0.5
#: Scale down only when the ratio is below ``TARGET_RATIO *
#: SCALE_DOWN_FRAC`` and the queue is empty.
SCALE_DOWN_FRAC = 0.5
#: Minimum virtual time between evaluations.
INTERVAL_S = 0.02
#: Quiet period after any decision.
COOLDOWN_S = 0.05
#: Devices added/removed per decision.
STEP = 1


@dataclass(frozen=True)
class AutoscalerConfig:
    """Knobs of the device-fleet control loop."""

    max_devices: int = 16
    #: Bring-up lag: a provisioned device accepts placements only
    #: this long after the decision.
    scaleup_lag_s: float = 0.05

    def __post_init__(self) -> None:
        if self.max_devices < MIN_DEVICES:
            raise ValueError(
                f"max_devices ({self.max_devices}) below "
                f"min_devices ({MIN_DEVICES})"
            )
        if self.scaleup_lag_s < 0:
            raise ValueError(
                f"scaleup_lag_s cannot be negative: {self.scaleup_lag_s}"
            )

    coerce = classmethod(coerce_optional)


class Autoscaler:
    """The device-fleet control loop over one pool.

    ``spec`` is the device spec new fleet members are provisioned
    with (storms scale out homogeneously).
    """

    def __init__(
        self,
        pool: DevicePool,
        config: AutoscalerConfig,
        spec: DeviceSpec,
    ) -> None:
        self.pool = pool
        self.config = config
        self.spec = spec
        self.scale_ups = 0
        self.scale_downs = 0
        self.peak_devices = pool.active_size()
        self._next_eval_s = 0.0
        self._cooldown_until_s = 0.0

    def step(
        self, now_s: float, ratio_p99: float, queue_frac: float
    ) -> int:
        """Fold one observation; returns devices added (+) or retired
        (-) by this call (0 almost always)."""
        if now_s < self._next_eval_s:
            return 0
        self._next_eval_s = now_s + INTERVAL_S
        size = self.pool.active_size()
        self.peak_devices = max(self.peak_devices, size)
        if now_s < self._cooldown_until_s:
            return 0
        cfg = self.config
        overloaded = ratio_p99 > TARGET_RATIO or queue_frac > QUEUE_HIGH
        if overloaded and size < cfg.max_devices:
            added = min(STEP, cfg.max_devices - size)
            for _ in range(added):
                self.pool.provision(
                    self.spec, now_s + cfg.scaleup_lag_s
                )
            self.scale_ups += 1
            self.peak_devices = max(
                self.peak_devices, self.pool.active_size()
            )
            self._cooldown_until_s = now_s + COOLDOWN_S
            return added
        calm = (
            ratio_p99 < TARGET_RATIO * SCALE_DOWN_FRAC
            and queue_frac <= 0.0
        )
        if calm and size > MIN_DEVICES:
            removed = min(STEP, size - MIN_DEVICES)
            # Retire from the top: highest-numbered active devices
            # (the most recently provisioned) drain and leave.
            victims = [
                slot_id
                for slot_id in range(len(self.pool) - 1, -1, -1)
                if not self.pool.is_retired(slot_id)
            ][:removed]
            for slot_id in victims:
                self.pool.retire(slot_id)
            self.scale_downs += 1
            self._cooldown_until_s = now_s + COOLDOWN_S
            return -removed
        return 0
