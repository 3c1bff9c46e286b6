"""Tests for heterogeneous fleet generation (paper Section VII-A)."""

import numpy as np
import pytest

from repro.data.dataset import ArrayDataset
from repro.data.partition import iid_partition
from repro.devices.fleet import FleetSpec, make_fleet
from repro.devices.population import DevicePopulation
from repro.errors import DeviceError


def partitions(num_users=20, n=200, seed=0):
    rng = np.random.default_rng(seed)
    ds = ArrayDataset(
        rng.normal(size=(n, 4)), rng.integers(0, 5, size=n)
    )
    return iid_partition(ds, num_users, seed=seed)


class TestSpecValidation:
    def test_defaults_match_paper(self):
        spec = FleetSpec()
        assert spec.f_min_hz == pytest.approx(0.3e9)
        assert spec.f_max_high_hz == pytest.approx(2.0e9)
        assert spec.transmit_power_w == pytest.approx(0.2)
        assert spec.switched_capacitance == pytest.approx(2e-28)

    def test_invalid_ranges(self):
        with pytest.raises(DeviceError):
            FleetSpec(f_min_hz=0.0)
        with pytest.raises(DeviceError):
            FleetSpec(f_max_low_hz=0.1e9)  # below f_min
        with pytest.raises(DeviceError):
            FleetSpec(f_max_high_hz=0.2e9)  # below f_max_low

    def test_invalid_channel_gain_range(self):
        with pytest.raises(DeviceError):
            FleetSpec(channel_gain_range=(0.0, 1.0))
        with pytest.raises(DeviceError):
            FleetSpec(channel_gain_range=(2.0, 1.0))

    def test_frequency_levels_must_include_one(self):
        with pytest.raises(DeviceError):
            FleetSpec(frequency_levels=(0.25, 0.5))
        with pytest.raises(DeviceError):
            FleetSpec(frequency_levels=(0.0, 1.0))


CONSTANTS = (
    "f_min_hz",
    "f_max_low_hz",
    "f_max_high_hz",
    "cycles_per_sample",
    "switched_capacitance",
    "transmit_power_w",
    "noise_power_w",
    "battery_capacity_j",
    "channel_gain_range[0]",
    "channel_gain_range[1]",
)

CONSTRUCTORS = {
    "make_fleet": lambda spec: make_fleet(partitions(num_users=4), spec, seed=0),
    "from_spec": lambda spec: DevicePopulation.from_spec(spec, [20, 30], seed=0),
}


def spec_with(field, value):
    """A spec whose ``field`` is ``value``, every other field valid."""
    if field.startswith("channel_gain_range"):
        gains = [1.0, 1.0]
        gains[int(field[-2])] = value
        return FleetSpec(channel_gain_range=tuple(gains))
    return FleetSpec(**{field: value})


class TestNonFiniteConstants:
    """Neither constructor checks a spec's values again, so a bad
    constant must stop at the spec, before any energy is computed.
    Zero is the boundary: each constant must be strictly positive."""

    @pytest.mark.parametrize("constructor", sorted(CONSTRUCTORS))
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -1.0, 0.0])
    @pytest.mark.parametrize("field", CONSTANTS)
    def test_refused_before_any_device_is_built(self, field, value, constructor):
        name = field.split("[")[0]
        with pytest.raises(DeviceError, match=rf"{name}.* must be finite and positive"):
            CONSTRUCTORS[constructor](spec_with(field, value))

    def test_spec_cannot_be_changed_after_its_check(self):
        spec = FleetSpec()
        with pytest.raises(AttributeError):
            spec.switched_capacitance = float("nan")


class TestMakeFleet:
    def test_one_device_per_partition(self):
        parts = partitions(12)
        fleet = make_fleet(parts, seed=0)
        assert len(fleet) == 12
        assert [d.device_id for d in fleet] == list(range(12))

    def test_datasets_attached_in_order(self):
        parts = partitions(5)
        fleet = make_fleet(parts, seed=0)
        for device, part in zip(fleet, parts):
            assert device.dataset is part

    def test_fmax_within_configured_interval(self):
        fleet = make_fleet(partitions(50), seed=1)
        for device in fleet:
            assert 0.3e9 <= device.cpu.f_max <= 2.0e9
            assert device.cpu.f_min == pytest.approx(0.3e9)

    def test_heterogeneity_present(self):
        fleet = make_fleet(partitions(50), seed=2)
        f_maxes = [d.cpu.f_max for d in fleet]
        assert np.std(f_maxes) > 0.1e9

    def test_deterministic_given_seed(self):
        parts = partitions(10)
        a = make_fleet(parts, seed=3)
        b = make_fleet(parts, seed=3)
        assert [d.cpu.f_max for d in a] == [d.cpu.f_max for d in b]

    def test_discrete_ladders(self):
        spec = FleetSpec(frequency_levels=(0.25, 0.5, 0.75, 1.0))
        fleet = make_fleet(partitions(5), spec, seed=4)
        for device in fleet:
            assert device.cpu.frequency_levels is not None
            assert device.cpu.frequency_levels[-1] == pytest.approx(
                device.cpu.f_max
            )

    def test_batteries_attached_when_configured(self):
        spec = FleetSpec(battery_capacity_j=50.0)
        fleet = make_fleet(partitions(3), spec, seed=5)
        assert all(d.battery is not None for d in fleet)
        assert all(d.battery.capacity_joules == 50.0 for d in fleet)

    def test_no_batteries_by_default(self):
        fleet = make_fleet(partitions(3), seed=6)
        assert all(d.battery is None for d in fleet)

    def test_channel_gain_heterogeneity(self):
        spec = FleetSpec(channel_gain_range=(0.5, 2.0))
        fleet = make_fleet(partitions(30), spec, seed=7)
        gains = [d.radio.channel_gain for d in fleet]
        assert min(gains) >= 0.5 and max(gains) <= 2.0
        assert np.std(gains) > 0.0

    def test_empty_partitions_raise(self):
        with pytest.raises(DeviceError):
            make_fleet([])
