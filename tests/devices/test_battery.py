"""Tests for the battery model."""

import pytest

from repro.devices.battery import Battery
from repro.errors import DeviceError


class TestBattery:
    def test_starts_full_by_default(self):
        battery = Battery(100.0)
        assert battery.level == 1.0

    def test_custom_initial_charge(self):
        battery = Battery(100.0, charge_joules=25.0)
        assert battery.level == 0.25

    def test_drain_success(self):
        battery = Battery(10.0)
        assert battery.drain(4.0) is True
        assert battery.charge_joules == pytest.approx(6.0)

    def test_drain_failure_empties(self):
        battery = Battery(10.0, charge_joules=3.0)
        assert battery.drain(5.0) is False
        assert battery.is_depleted

    def test_can_afford(self):
        battery = Battery(10.0, charge_joules=5.0)
        assert battery.can_afford(5.0)
        assert not battery.can_afford(5.1)

    def test_recharge_partial(self):
        battery = Battery(10.0, charge_joules=2.0)
        battery.recharge(3.0)
        assert battery.charge_joules == pytest.approx(5.0)

    def test_recharge_caps_at_capacity(self):
        battery = Battery(10.0, charge_joules=8.0)
        battery.recharge(100.0)
        assert battery.charge_joules == 10.0

    def test_recharge_full(self):
        battery = Battery(10.0, charge_joules=1.0)
        battery.recharge()
        assert battery.level == 1.0

    def test_validation(self):
        with pytest.raises(DeviceError):
            Battery(0.0)
        with pytest.raises(DeviceError):
            Battery(10.0, charge_joules=-1.0)
        with pytest.raises(DeviceError):
            Battery(10.0, charge_joules=11.0)
        with pytest.raises(DeviceError):
            Battery(10.0).drain(-1.0)
        with pytest.raises(DeviceError):
            Battery(10.0).recharge(-1.0)

    @pytest.mark.parametrize("capacity", [float("inf"), float("nan"), -1.0])
    def test_non_finite_or_negative_capacity_rejected(self, capacity):
        # An infinite capacity would read as a NaN level (inf / inf).
        with pytest.raises(DeviceError, match="positive and finite"):
            Battery(capacity)
