"""SLO-driven autoscaling of the virtual device fleet.

:class:`Autoscaler` grows/shrinks one service's
:class:`~repro.gpu.lease.DevicePool` against a per-class latency SLO
(docs/overload.md).  Decisions are taken at most once per
``interval_s`` of virtual time; a scale-up provisions devices that
only start accepting placements after ``scaleup_lag_s`` (modelled
bring-up: capacity requested at a flash crowd's onset arrives
mid-storm, not instantly), and a scale-down retires the
highest-numbered device (no new placements; its in-flight stream
drains).  A ``cooldown_s`` after every decision keeps the loop from
thrashing against its own transient.

The loop is a pure function of observations on the virtual clock, so
autoscaled storm runs replay bit-identically.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.gpu.device import DeviceSpec
from repro.gpu.lease import DevicePool
from repro.util.coerce import coerce_optional


@dataclass(frozen=True)
class AutoscalerConfig:
    """Knobs of the device-fleet control loop."""

    min_devices: int = 1
    max_devices: int = 16
    #: Scale up when the windowed p99 latency/deadline ratio exceeds
    #: this (1.0 = p99 exactly at the deadline).
    target_ratio: float = 0.8
    #: ... or when the queue fraction exceeds this.
    queue_high: float = 0.5
    #: Scale down only when the ratio is below ``target_ratio *
    #: scale_down_frac`` and the queue is empty.
    scale_down_frac: float = 0.5
    #: Minimum virtual time between evaluations.
    interval_s: float = 0.02
    #: Bring-up lag: a provisioned device accepts placements only
    #: this long after the decision.
    scaleup_lag_s: float = 0.05
    #: Quiet period after any decision.
    cooldown_s: float = 0.05
    #: Devices added/removed per decision.
    step: int = 1

    def __post_init__(self) -> None:
        if self.min_devices <= 0:
            raise ValueError(
                f"min_devices must be positive: {self.min_devices}"
            )
        if self.max_devices < self.min_devices:
            raise ValueError(
                f"max_devices ({self.max_devices}) below "
                f"min_devices ({self.min_devices})"
            )
        if self.target_ratio <= 0:
            raise ValueError(
                f"target_ratio must be positive: {self.target_ratio}"
            )
        if not 0 <= self.scale_down_frac < 1.0:
            raise ValueError(
                f"scale_down_frac must be in [0, 1): "
                f"{self.scale_down_frac}"
            )
        if self.interval_s <= 0:
            raise ValueError(
                f"interval_s must be positive: {self.interval_s}"
            )
        if self.scaleup_lag_s < 0 or self.cooldown_s < 0:
            raise ValueError(
                "scaleup_lag_s and cooldown_s cannot be negative"
            )
        if self.step <= 0:
            raise ValueError(f"step must be positive: {self.step}")

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
        self._next_eval_s = now_s + self.config.interval_s
        size = self.pool.active_size()
        self.peak_devices = max(self.peak_devices, size)
        if now_s < self._cooldown_until_s:
            return 0
        cfg = self.config
        overloaded = (
            ratio_p99 > cfg.target_ratio
            or queue_frac > cfg.queue_high
        )
        if overloaded and size < cfg.max_devices:
            added = min(cfg.step, cfg.max_devices - size)
            for _ in range(added):
                self.pool.provision(
                    self.spec, now_s + cfg.scaleup_lag_s
                )
            self.scale_ups += 1
            self.peak_devices = max(
                self.peak_devices, self.pool.active_size()
            )
            self._cooldown_until_s = now_s + cfg.cooldown_s
            return added
        calm = (
            ratio_p99 < cfg.target_ratio * cfg.scale_down_frac
            and queue_frac <= 0.0
        )
        if calm and size > cfg.min_devices:
            removed = min(cfg.step, size - cfg.min_devices)
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
            self._cooldown_until_s = now_s + cfg.cooldown_s
            return -removed
        return 0
