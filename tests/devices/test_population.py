"""Tests for the struct-of-arrays :class:`DevicePopulation` view."""

import math

import numpy as np
import pytest

from repro.data.dataset import ArrayDataset
from repro.devices.fleet import FleetSpec, make_fleet
from repro.devices.population import DevicePopulation
from repro.errors import DeviceError, FrequencyRangeError
from tests.conftest import make_device, make_heterogeneous_devices
from tests.oracles.population_loop import from_devices_loop

PAYLOAD = 1e6
BANDWIDTH = 2e6


def make_partitions(sizes, seed=0):
    rng = np.random.default_rng(seed)
    return [
        ArrayDataset(rng.normal(size=(s, 4)), rng.integers(0, 3, size=s))
        for s in sizes
    ]


def spec_with_everything():
    return FleetSpec(
        channel_gain_range=(1e-7, 1e-6),
        frequency_levels=(0.25, 0.5, 0.75, 1.0),
        battery_capacity_j=50.0,
    )


class TestFromDevices:
    def test_fields_mirror_objects(self):
        devices = make_heterogeneous_devices(6, seed=2)
        population = DevicePopulation.from_devices(devices)
        for position, device in enumerate(devices):
            assert population.device_ids[position] == device.device_id
            assert population.f_min[position] == device.cpu.f_min
            assert population.f_max[position] == device.cpu.f_max
            assert population.num_samples[position] == device.num_samples
            assert (
                population.channel_gain[position]
                == device.radio.channel_gain
            )

    @pytest.mark.parametrize(
        "fleet",
        [
            lambda: make_heterogeneous_devices(40, seed=3),
            lambda: make_fleet(
                make_partitions([0, 3, 17, 5, 9, 1]), spec_with_everything(), seed=4
            ),
            lambda: make_fleet(make_partitions([2] * 30), FleetSpec(), seed=5),
        ],
        ids=["heterogeneous", "ladders_and_batteries", "homogeneous"],
    )
    def test_columns_equal_the_per_device_loop_byte_for_byte(self, fleet):
        devices = fleet()
        built = DevicePopulation.from_devices(devices)
        expected = from_devices_loop(devices)
        for name, value in vars(expected).items():
            got = getattr(built, name)
            if isinstance(value, np.ndarray):
                assert (got.dtype, got.shape, got.tobytes()) == (
                    value.dtype, value.shape, value.tobytes()
                ), name
            else:
                assert got == value, name

    def test_empty_rejected(self):
        with pytest.raises(DeviceError):
            DevicePopulation.from_devices([])

    def test_len_and_repr(self):
        population = DevicePopulation.from_devices(
            make_heterogeneous_devices(4)
        )
        assert len(population) == 4
        assert "Q=4" in repr(population)


class TestFromSpec:
    def test_bitwise_matches_make_fleet(self):
        """from_spec replays make_fleet's RNG stream exactly, including
        interleaved gain draws and DVFS ladders."""
        sizes = np.random.default_rng(5).integers(50, 400, size=64).tolist()
        spec = spec_with_everything()
        by_objects = DevicePopulation.from_devices(
            make_fleet(make_partitions(sizes), spec, seed=99)
        )
        direct = DevicePopulation.from_spec(spec, sizes, seed=99)
        for name in (
            "device_ids",
            "f_min",
            "f_max",
            "cycles_per_sample",
            "switched_capacitance",
            "num_samples",
            "transmit_power",
            "channel_gain",
            "noise_power",
            "log2_snr1",
            "ladder",
            "ladder_sizes",
        ):
            assert np.array_equal(
                getattr(by_objects, name),
                getattr(direct, name),
                equal_nan=True,
            ), name

    def test_homogeneous_gain_stream(self):
        sizes = [100] * 32
        spec = FleetSpec()  # degenerate gain range: single-draw stream
        by_objects = DevicePopulation.from_devices(
            make_fleet(make_partitions(sizes), spec, seed=7)
        )
        direct = DevicePopulation.from_spec(spec, sizes, seed=7)
        assert np.array_equal(by_objects.f_max, direct.f_max)
        assert np.array_equal(by_objects.channel_gain, direct.channel_gain)

    def test_empty_rejected(self):
        with pytest.raises(DeviceError):
            DevicePopulation.from_spec(FleetSpec(), [])


class TestCostModel:
    def test_eqs_4_to_9_match_objects_bitwise(self):
        devices = make_heterogeneous_devices(8, seed=4)
        population = DevicePopulation.from_devices(devices)
        delay = population.compute_delay()
        energy = population.compute_energy()
        rate = population.upload_rate(BANDWIDTH)
        up_delay = population.upload_delay(PAYLOAD, BANDWIDTH)
        up_energy = population.upload_energy(PAYLOAD, BANDWIDTH)
        total = population.total_delay(PAYLOAD, BANDWIDTH)
        for position, device in enumerate(devices):
            assert delay[position] == device.compute_delay(device.cpu.f_max)
            assert energy[position] == device.compute_energy(device.cpu.f_max)
            assert rate[position] == device.radio.upload_rate(BANDWIDTH)
            assert up_delay[position] == device.upload_delay(PAYLOAD, BANDWIDTH)
            assert up_energy[position] == device.upload_energy(
                PAYLOAD, BANDWIDTH
            )
            assert total[position] == device.total_delay(PAYLOAD, BANDWIDTH)

    def test_custom_frequencies(self):
        devices = make_heterogeneous_devices(5, seed=6)
        population = DevicePopulation.from_devices(devices)
        freqs = population.f_min + 0.5 * (population.f_max - population.f_min)
        delay = population.compute_delay(freqs)
        energy = population.compute_energy(freqs)
        for position, device in enumerate(devices):
            f = float(freqs[position])
            assert delay[position] == device.compute_delay(f)
            assert energy[position] == device.compute_energy(f)

    def test_invalid_bandwidth_and_payload(self):
        population = DevicePopulation.from_devices(
            make_heterogeneous_devices(3)
        )
        with pytest.raises(DeviceError):
            population.upload_rate(0.0)
        with pytest.raises(DeviceError):
            population.upload_delay(-1.0, BANDWIDTH)

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_non_finite_payload(self, bad):
        devices = make_heterogeneous_devices(3)
        population = DevicePopulation.from_devices(devices)
        per_device = np.array([PAYLOAD, bad, PAYLOAD])
        for payload in (bad, per_device):
            with pytest.raises(DeviceError, match="finite"):
                population.upload_delay(payload, BANDWIDTH)
            with pytest.raises(DeviceError, match="finite"):
                population.upload_energy(payload, BANDWIDTH)
        with pytest.raises(DeviceError, match="finite"):
            population.max_frequency_delay(bad, BANDWIDTH)
        with pytest.raises(DeviceError, match="finite"):
            devices[0].upload_delay(bad, BANDWIDTH)
        # A refused payload leaves nothing cached.
        assert population.max_frequency_delay(PAYLOAD, BANDWIDTH).tobytes() == (
            DevicePopulation.from_devices(devices)
            .max_frequency_delay(PAYLOAD, BANDWIDTH)
            .tobytes()
        )


class TestFrequencyHandling:
    def test_validate_rejects_out_of_range(self):
        population = DevicePopulation.from_devices(
            make_heterogeneous_devices(4)
        )
        freqs = population.f_max.copy()
        freqs[2] = population.f_max[2] * 2.0
        with pytest.raises(FrequencyRangeError):
            population.validate_frequencies(freqs)

    def test_validate_clamps_tolerance_band(self):
        device = make_device(f_max=1.0e9)
        population = DevicePopulation.from_devices([device])
        nudged = np.array([1.0e9 * (1.0 + 1e-12)])
        result = population.validate_frequencies(nudged)
        assert result[0] == device.cpu.validate_frequency(float(nudged[0]))

    def test_quantize_matches_cpu(self):
        sizes = [100] * 16
        spec = spec_with_everything()
        devices = make_fleet(make_partitions(sizes), spec, seed=12)
        population = DevicePopulation.from_devices(devices)
        rng = np.random.default_rng(3)
        targets = rng.uniform(
            population.f_min, population.f_max, size=len(population)
        )
        snapped = population.quantize(targets)
        for position, device in enumerate(devices):
            assert snapped[position] == device.cpu.quantize(
                float(targets[position])
            )

    def test_quantize_without_ladder_is_clamp(self):
        population = DevicePopulation.from_devices(
            make_heterogeneous_devices(4)
        )
        targets = population.f_max * 1.5
        assert np.array_equal(
            population.quantize(targets), population.clamp(targets)
        )


class TestViewsAndUpdates:
    def test_take_subsets_all_fields(self):
        devices = make_heterogeneous_devices(8, seed=9)
        population = DevicePopulation.from_devices(devices)
        sub = population.take([5, 1, 3])
        assert sub.device_ids.tolist() == [5, 1, 3]
        assert sub.f_max.tolist() == [
            devices[5].cpu.f_max,
            devices[1].cpu.f_max,
            devices[3].cpu.f_max,
        ]
        assert len(sub) == 3

    @pytest.mark.parametrize("ladders", [False, True])
    def test_take_equals_a_freshly_built_population(self, ladders):
        """``take`` slices the cached arrays (no ``math.log2`` replay),
        so it must hold exactly what the constructor would compute."""
        spec = FleetSpec(
            channel_gain_range=(0.5, 2.0),
            frequency_levels=(0.25, 0.5, 1.0) if ladders else None,
        )
        sizes = np.arange(20, 60)
        population = DevicePopulation.from_spec(spec, sizes, seed=4)
        population.set_channel_gains([7, 2], [0.9, 1.7])
        positions = np.array([7, 2, 39, 0, 11])
        child = population.take(positions)
        fresh = DevicePopulation(
            population.device_ids[positions],
            population.f_min[positions],
            population.f_max[positions],
            population.cycles_per_sample[positions],
            population.switched_capacitance[positions],
            population.num_samples[positions],
            population.transmit_power[positions],
            population.channel_gain[positions],
            population.noise_power[positions],
            ladder=population.ladder[positions] if ladders else None,
            ladder_sizes=population.ladder_sizes[positions] if ladders else None,
        )
        assert np.array_equal(child.log2_snr1, fresh.log2_snr1)
        assert vars(child).keys() == vars(fresh).keys()
        for name, value in vars(fresh).items():
            mine = getattr(child, name)
            if value is None:
                assert mine is None, name
            else:
                assert mine.dtype == value.dtype, name
                assert np.array_equal(mine, value), name
        # The child owns its arrays: fading it must not reach the parent.
        before = population.log2_snr1.copy()
        child.set_channel_gains([0], [0.6])
        assert np.array_equal(population.log2_snr1, before)

    def test_take_empty_rejected(self):
        population = DevicePopulation.from_devices(
            make_heterogeneous_devices(3)
        )
        with pytest.raises(DeviceError):
            population.take([])
        with pytest.raises(DeviceError):
            population.take(1)

    def test_position_of(self):
        population = DevicePopulation.from_devices(
            make_heterogeneous_devices(5)
        )
        assert population.position_of(3) == 3
        with pytest.raises(DeviceError):
            population.position_of(99)

    def test_set_channel_gains_refreshes_eq6_cache(self):
        devices = make_heterogeneous_devices(4, seed=11)
        population = DevicePopulation.from_devices(devices)
        devices[2].radio.channel_gain = 0.5
        population.set_channel_gains((2,), (0.5,))
        assert population.channel_gain[2] == 0.5
        assert population.log2_snr1[2] == math.log2(
            1.0 + devices[2].radio.snr
        )
        rate = population.upload_rate(BANDWIDTH)
        assert rate[2] == devices[2].radio.upload_rate(BANDWIDTH)

    def test_set_channel_gains_rejects_nonpositive(self):
        population = DevicePopulation.from_devices(
            make_heterogeneous_devices(2)
        )
        with pytest.raises(DeviceError):
            population.set_channel_gains((0,), (0.0,))

    @pytest.mark.parametrize("gain", [float("nan"), float("inf"), -1.0])
    def test_set_channel_gains_rejects_non_finite(self, gain):
        """NaN passes ``value <= 0`` and would poison ``log2_snr1``."""
        population = DevicePopulation.from_devices(
            make_heterogeneous_devices(4)
        )
        before = (population.channel_gain.copy(), population.log2_snr1.copy())
        with pytest.raises(DeviceError, match="finite and positive"):
            population.set_channel_gains([3], [gain])
        assert np.array_equal(population.channel_gain, before[0])
        assert np.array_equal(population.log2_snr1, before[1])
