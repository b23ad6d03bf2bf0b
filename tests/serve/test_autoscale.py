"""The elastic device fleet and the device autoscaling control loop."""

import pytest

from repro.gpu import TESLA_C2050, DevicePool, PoolError
from repro.serve import Autoscaler, AutoscalerConfig
from repro.serve.autoscale import COOLDOWN_S, INTERVAL_S
from repro.util.clock import Clock


def make_pool(n=2):
    clock = Clock()
    return DevicePool((TESLA_C2050,) * n, clock), clock


# -- elastic pool ------------------------------------------------------------


class TestElasticPool:
    def test_provision_respects_bring_up_lag(self):
        pool, clock = make_pool(1)
        new_id = pool.provision(TESLA_C2050, available_s=0.05)
        assert new_id == 1
        assert pool.active_size() == 2  # paid for immediately...
        assert pool.placeable_ids() == [0]  # ...placeable later
        assert pool.available_after(new_id) == 0.05
        clock.advance(0.05)
        assert pool.placeable_ids() == [0, 1]

    def test_provision_into_the_past_rejected(self):
        pool, clock = make_pool(1)
        clock.advance(1.0)
        with pytest.raises(PoolError, match="past"):
            pool.provision(TESLA_C2050, available_s=0.5)

    def test_least_busy_never_places_on_lagging_device(self):
        pool, clock = make_pool(1)
        pool.provision(TESLA_C2050, available_s=1.0)
        # Device 0 is busy; the fresh device would win on idleness
        # but is still inside its bring-up lag.
        pool.launch("req", 1e-3)
        assert pool.least_busy() == 0
        clock.advance(1.0)
        assert pool.least_busy() == 1

    def test_retire_drains_but_never_places(self):
        pool, clock = make_pool(2)
        lease = pool.launch("req", 1e-3, device_id=1)
        pool.retire(1)
        pool.retire(1)  # idempotent
        assert pool.is_retired(1)
        assert pool.active_size() == 1
        assert pool.placeable_ids() == [0]
        assert pool.least_busy() == 0
        # In-flight work on the retiree still resolves.
        clock.advance_to(lease.event.done_at)
        pool.synchronize(lease)
        pool.assert_drained()


# -- device-fleet control loop -----------------------------------------------


class TestAutoscaler:
    def cfg(self, **kw):
        base = dict(max_devices=4, scaleup_lag_s=0.05)
        base.update(kw)
        return AutoscalerConfig(**base)

    def test_scales_up_under_pressure_with_lag(self):
        pool, clock = make_pool(2)
        scaler = Autoscaler(pool, self.cfg(), TESLA_C2050)
        assert scaler.step(0.0, ratio_p99=2.0, queue_frac=0.0) == 1
        assert scaler.scale_ups == 1
        assert pool.active_size() == 3
        assert pool.available_after(2) == pytest.approx(0.05)

    def test_interval_and_cooldown_gate_decisions(self):
        pool, clock = make_pool(1)
        scaler = Autoscaler(pool, self.cfg(), TESLA_C2050)
        assert INTERVAL_S < COOLDOWN_S
        assert scaler.step(0.0, 2.0, 1.0) == 1
        # Too soon (interval), then inside the cooldown.
        assert scaler.step(INTERVAL_S / 2, 2.0, 1.0) == 0
        assert scaler.step(INTERVAL_S, 2.0, 1.0) == 0
        # Past the cooldown: acts again.
        assert scaler.step(COOLDOWN_S, 2.0, 1.0) == 1
        assert scaler.scale_ups == 2

    def test_scale_up_capped_at_max_devices(self):
        pool, clock = make_pool(4)
        scaler = Autoscaler(pool, self.cfg(), TESLA_C2050)
        assert scaler.step(0.0, 2.0, 1.0) == 0
        assert scaler.scale_ups == 0

    def test_scales_down_when_calm_and_floor_holds(self):
        pool, clock = make_pool(3)
        scaler = Autoscaler(pool, self.cfg(), TESLA_C2050)
        assert scaler.step(0.0, 0.0, 0.0) == -1
        assert pool.is_retired(2)  # highest-numbered goes first
        assert scaler.step(COOLDOWN_S, 0.0, 0.0) == -1
        assert scaler.step(2 * COOLDOWN_S, 0.0, 0.0) == 0  # at the floor
        assert scaler.scale_downs == 2

    def test_queue_pressure_alone_triggers_scale_up(self):
        pool, clock = make_pool(1)
        scaler = Autoscaler(pool, self.cfg(), TESLA_C2050)
        assert scaler.step(0.0, ratio_p99=0.0, queue_frac=0.9) == 1

    def test_peak_devices_tracks_high_water_mark(self):
        pool, clock = make_pool(1)
        scaler = Autoscaler(pool, self.cfg(), TESLA_C2050)
        scaler.step(0.0, 2.0, 1.0)
        scaler.step(COOLDOWN_S, 2.0, 1.0)
        assert scaler.peak_devices == 3
        scaler.step(2 * COOLDOWN_S, 0.0, 0.0)
        assert scaler.peak_devices == 3

    def test_config_validation_and_coerce(self):
        with pytest.raises(ValueError):
            AutoscalerConfig(max_devices=0)
        with pytest.raises(ValueError):
            AutoscalerConfig(scaleup_lag_s=-1.0)
        assert AutoscalerConfig.coerce(None) is None
        assert AutoscalerConfig.coerce(False) is None
        assert AutoscalerConfig.coerce(True) == AutoscalerConfig()
        assert (
            AutoscalerConfig.coerce({"max_devices": 8}).max_devices
            == 8
        )
        cfg = AutoscalerConfig()
        assert AutoscalerConfig.coerce(cfg) is cfg
        with pytest.raises(TypeError):
            AutoscalerConfig.coerce(3.14)
