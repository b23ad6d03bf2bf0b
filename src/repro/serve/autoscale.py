"""SLO-driven autoscaling of the virtual device fleet and shard count.

Two control loops (docs/overload.md):

* :class:`Autoscaler` grows/shrinks one service's
  :class:`~repro.gpu.lease.DevicePool` against a per-class latency
  SLO.  Decisions are taken at most once per ``interval_s`` of
  virtual time; a scale-up provisions devices that only start
  accepting placements after ``scaleup_lag_s`` (modelled bring-up:
  capacity requested at a flash crowd's onset arrives mid-storm, not
  instantly), and a scale-down retires the highest-numbered device
  (no new placements; its in-flight stream drains).  A ``cooldown_s``
  after every decision keeps the loop from thrashing against its own
  transient.
* :class:`ShardAutoscaler` makes the epoch-granularity cluster
  decision: given one epoch's interactive SLO attainment, how many
  shards should the next epoch run?  The storm harness
  (:mod:`repro.serve.storm`) rebuilds the
  :class:`~repro.serve.cluster.ClusterRouter` between epochs;
  consistent hashing keeps most keys in place across the resize.

Both loops are pure functions of observations on the virtual clock,
so autoscaled storm runs replay bit-identically.
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


@dataclass(frozen=True)
class ShardAutoscalerConfig:
    """Knobs of the epoch-granularity shard-count loop."""

    min_shards: int = 1
    max_shards: int = 8
    #: Scale up while interactive attainment is below this.
    attainment_low: float = 0.95
    #: Scale down when attainment is at/above this (and above min).
    attainment_high: float = 0.995
    step: int = 1

    def __post_init__(self) -> None:
        if self.min_shards <= 0:
            raise ValueError(
                f"min_shards must be positive: {self.min_shards}"
            )
        if self.max_shards < self.min_shards:
            raise ValueError(
                f"max_shards ({self.max_shards}) below "
                f"min_shards ({self.min_shards})"
            )
        if not 0 < self.attainment_low <= self.attainment_high <= 1.0:
            raise ValueError(
                "need 0 < attainment_low <= attainment_high <= 1"
            )
        if self.step <= 0:
            raise ValueError(f"step must be positive: {self.step}")


class ShardAutoscaler:
    """Epoch-wise shard-count decisions from SLO attainment."""

    def __init__(self, config: ShardAutoscalerConfig) -> None:
        self.config = config
        self.scale_ups = 0
        self.scale_downs = 0

    def next_count(self, current: int, attainment: float) -> int:
        """Shard count for the next epoch, given this epoch's
        interactive-class SLO attainment."""
        cfg = self.config
        current = max(cfg.min_shards, min(current, cfg.max_shards))
        if attainment < cfg.attainment_low:
            target = min(cfg.max_shards, current + cfg.step)
            if target > current:
                self.scale_ups += 1
            return target
        if attainment >= cfg.attainment_high:
            target = max(cfg.min_shards, current - cfg.step)
            if target < current:
                self.scale_downs += 1
            return target
        return current
