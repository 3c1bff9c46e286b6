"""Tests for the TDMA round-timeline simulator (Fig. 1, Eqs. 10-11)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.devices.population import DevicePopulation
from repro.errors import FrequencyRangeError, NetworkError
from repro.network.tdma import simulate_tdma_round
from tests.conftest import make_device, make_heterogeneous_devices

PAYLOAD = 1e6
BANDWIDTH = 2e6


class TestSingleUser:
    def test_timeline_values(self):
        device = make_device(f_max=1.0e9, num_samples=50)
        timeline = simulate_tdma_round([device], PAYLOAD, BANDWIDTH)
        entry = timeline.users[0]
        assert entry.compute_delay == pytest.approx(device.compute_delay())
        assert entry.upload_start == pytest.approx(entry.compute_end)
        assert entry.slack == 0.0
        assert timeline.round_delay == pytest.approx(
            device.total_delay(PAYLOAD, BANDWIDTH)
        )

    def test_round_energy_is_eq11(self):
        device = make_device()
        timeline = simulate_tdma_round([device], PAYLOAD, BANDWIDTH)
        expected = device.compute_energy() + device.upload_energy(
            PAYLOAD, BANDWIDTH
        )
        assert timeline.total_energy == pytest.approx(expected)


class TestMultiUser:
    def test_uploads_do_not_overlap(self):
        devices = make_heterogeneous_devices(6)
        timeline = simulate_tdma_round(devices, PAYLOAD, BANDWIDTH)
        ordered = sorted(timeline.users, key=lambda e: e.upload_start)
        for a, b in zip(ordered, ordered[1:]):
            assert b.upload_start >= a.upload_end - 1e-12

    def test_upload_order_follows_compute_completion(self):
        devices = make_heterogeneous_devices(6)
        timeline = simulate_tdma_round(devices, PAYLOAD, BANDWIDTH)
        compute_ends = [e.compute_end for e in timeline.users]
        assert compute_ends == sorted(compute_ends)

    def test_round_delay_is_last_upload(self):
        devices = make_heterogeneous_devices(5)
        timeline = simulate_tdma_round(devices, PAYLOAD, BANDWIDTH)
        assert timeline.round_delay == pytest.approx(
            max(e.upload_end for e in timeline.users)
        )

    def test_round_delay_at_least_eq10(self):
        """Queueing can only extend the paper's Eq. (10) lower bound."""
        devices = make_heterogeneous_devices(7)
        timeline = simulate_tdma_round(devices, PAYLOAD, BANDWIDTH)
        eq10 = max(d.total_delay(PAYLOAD, BANDWIDTH) for d in devices)
        assert timeline.round_delay >= eq10 - 1e-12

    def test_slack_is_wait_for_channel(self):
        # Two identical devices: the second must wait a full upload.
        devices = [
            make_device(device_id=0, f_max=1.0e9),
            make_device(device_id=1, f_max=1.0e9),
        ]
        timeline = simulate_tdma_round(devices, PAYLOAD, BANDWIDTH)
        upload_delay = devices[0].upload_delay(PAYLOAD, BANDWIDTH)
        slacks = sorted(e.slack for e in timeline.users)
        assert slacks[0] == pytest.approx(0.0)
        assert slacks[1] == pytest.approx(upload_delay)

    def test_no_slack_when_computes_spread_out(self):
        # Device 1 finishes long after device 0's upload completes.
        fast = make_device(device_id=0, f_max=2.0e9, num_samples=10)
        slow = make_device(device_id=1, f_max=0.35e9, num_samples=200)
        timeline = simulate_tdma_round([fast, slow], PAYLOAD, BANDWIDTH)
        by_id = timeline.by_device()
        assert by_id[1].slack == pytest.approx(0.0)

    def test_total_energy_sums_users(self):
        devices = make_heterogeneous_devices(4)
        timeline = simulate_tdma_round(devices, PAYLOAD, BANDWIDTH)
        assert timeline.total_energy == pytest.approx(
            sum(e.total_energy for e in timeline.users)
        )
        assert timeline.total_energy == pytest.approx(
            timeline.total_compute_energy + timeline.total_upload_energy
        )

    def test_custom_frequencies_respected(self):
        devices = make_heterogeneous_devices(3)
        freqs = {d.device_id: d.cpu.f_min for d in devices}
        timeline = simulate_tdma_round(devices, PAYLOAD, BANDWIDTH, freqs)
        for entry in timeline.users:
            assert entry.frequency == pytest.approx(0.3e9)

    def test_lower_frequency_reduces_compute_energy(self):
        devices = make_heterogeneous_devices(3)
        base = simulate_tdma_round(devices, PAYLOAD, BANDWIDTH)
        freqs = {d.device_id: d.cpu.f_min for d in devices}
        slowed = simulate_tdma_round(devices, PAYLOAD, BANDWIDTH, freqs)
        assert slowed.total_compute_energy < base.total_compute_energy

    def test_out_of_range_frequency_raises(self):
        devices = make_heterogeneous_devices(2)
        with pytest.raises(FrequencyRangeError):
            simulate_tdma_round(
                devices, PAYLOAD, BANDWIDTH, {devices[0].device_id: 1e12}
            )

    @pytest.mark.parametrize("bad", (float("nan"), float("inf"), float("-inf")))
    def test_non_finite_frequency_raises(self, bad):
        """NaN fails ``<`` and ``>`` alike, so the range test must be
        written as "not inside" — on the scalar method, its array twin
        and the TDMA entry point (where it used to poison the ledger)."""
        devices = make_heterogeneous_devices(2)
        population = DevicePopulation.from_devices(devices)
        with pytest.raises(FrequencyRangeError):
            devices[1].cpu.validate_frequency(bad)
        with pytest.raises(FrequencyRangeError):
            population.validate_frequencies([devices[0].cpu.f_max, bad])
        for snapshot in (None, population):
            with pytest.raises(FrequencyRangeError):
                simulate_tdma_round(
                    devices,
                    PAYLOAD,
                    BANDWIDTH,
                    {devices[1].device_id: bad},
                    population=snapshot,
                )

    def test_empty_selection_raises(self):
        with pytest.raises(NetworkError):
            simulate_tdma_round([], PAYLOAD, BANDWIDTH)

    def test_population_is_the_single_source_of_users(self):
        devices = make_heterogeneous_devices(5)
        population = DevicePopulation.from_devices(devices)
        with pytest.raises(NetworkError, match="2 users .* holds 5"):
            simulate_tdma_round(
                devices[:2], PAYLOAD, BANDWIDTH, population=population
            )
        # Callers that hold no device objects pass none.
        assert simulate_tdma_round(
            (), PAYLOAD, BANDWIDTH, population=population
        ) == simulate_tdma_round(devices, PAYLOAD, BANDWIDTH)


class TestTimelineProperties:
    @given(
        count=st.integers(1, 8),
        seed=st.integers(0, 500),
        payload=st.floats(min_value=1e4, max_value=1e7),
    )
    @settings(max_examples=40, deadline=None)
    def test_invariants_hold_for_any_fleet(self, count, seed, payload):
        devices = make_heterogeneous_devices(count, seed=seed)
        timeline = simulate_tdma_round(devices, payload, BANDWIDTH)
        assert len(timeline.users) == count
        for entry in timeline.users:
            assert entry.slack >= -1e-12
            assert entry.upload_start >= entry.compute_end - 1e-12
            assert entry.upload_end > entry.upload_start
            assert entry.compute_energy > 0
            assert entry.upload_energy > 0
        # The channel serves exactly count uploads back to back at most.
        total_upload_time = sum(e.upload_delay for e in timeline.users)
        first_compute = min(e.compute_end for e in timeline.users)
        assert timeline.round_delay >= first_compute + total_upload_time - 1e-9

    @given(count=st.integers(2, 8), seed=st.integers(0, 500))
    @settings(max_examples=40, deadline=None)
    def test_slack_equals_start_minus_compute(self, count, seed):
        devices = make_heterogeneous_devices(count, seed=seed)
        timeline = simulate_tdma_round(devices, PAYLOAD, BANDWIDTH)
        for entry in timeline.users:
            assert entry.slack == pytest.approx(
                entry.upload_start - entry.compute_end
            )
        assert timeline.total_slack == pytest.approx(
            sum(e.slack for e in timeline.users)
        )
