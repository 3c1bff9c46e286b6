"""Tests for the OFDMA round simulator."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import NetworkError
from repro.network.ofdma import simulate_ofdma_round
from repro.network.tdma import simulate_tdma_round
from tests.conftest import make_device, make_heterogeneous_devices

PAYLOAD = 1e6
BANDWIDTH = 2e6


class TestOfdma:
    def test_zero_slack_by_construction(self):
        devices = make_heterogeneous_devices(5)
        timeline = simulate_ofdma_round(devices, PAYLOAD, BANDWIDTH)
        assert timeline.total_slack == 0.0
        for entry in timeline.users:
            assert entry.upload_start == entry.compute_end

    def test_order_maps_entries_to_input_positions(self):
        devices = make_heterogeneous_devices(5)[::-1]
        timeline = simulate_ofdma_round(devices, PAYLOAD, BANDWIDTH)
        assert timeline.order.dtype == np.int64
        assert [devices[p].device_id for p in timeline.order.tolist()] == (
            timeline.device_ids.tolist()
        )

    def test_single_user_matches_tdma(self):
        """With one user, OFDMA and TDMA are the same channel."""
        device = make_device()
        ofdma = simulate_ofdma_round([device], PAYLOAD, BANDWIDTH)
        tdma = simulate_tdma_round([device], PAYLOAD, BANDWIDTH)
        assert ofdma.round_delay == pytest.approx(tdma.round_delay)
        assert ofdma.total_energy == pytest.approx(tdma.total_energy)

    def test_subband_slows_each_upload(self):
        devices = make_heterogeneous_devices(4)
        ofdma = simulate_ofdma_round(devices, PAYLOAD, BANDWIDTH)
        tdma = simulate_tdma_round(devices, PAYLOAD, BANDWIDTH)
        ofdma_by = ofdma.by_device()
        tdma_by = tdma.by_device()
        for device in devices:
            assert (
                ofdma_by[device.device_id].upload_delay
                > tdma_by[device.device_id].upload_delay
            )

    def test_round_delay_is_max_finish(self):
        devices = make_heterogeneous_devices(6, seed=2)
        timeline = simulate_ofdma_round(devices, PAYLOAD, BANDWIDTH)
        assert timeline.round_delay == pytest.approx(
            max(e.upload_end for e in timeline.users)
        )

    def test_custom_frequencies_and_payloads(self):
        devices = make_heterogeneous_devices(3, seed=3)
        freqs = {d.device_id: d.cpu.f_min for d in devices}
        payloads = {devices[0].device_id: PAYLOAD / 10}
        timeline = simulate_ofdma_round(
            devices, PAYLOAD, BANDWIDTH, freqs, payloads
        )
        by = timeline.by_device()
        assert by[devices[0].device_id].upload_delay < by[
            devices[1].device_id
        ].upload_delay
        for entry in timeline.users:
            assert entry.frequency == pytest.approx(0.3e9)

    def test_empty_selection_raises(self):
        with pytest.raises(NetworkError):
            simulate_ofdma_round([], PAYLOAD, BANDWIDTH)

    @given(count=st.integers(1, 8), seed=st.integers(0, 200))
    @settings(max_examples=30, deadline=None)
    def test_energy_identical_to_tdma_at_max_frequency(self, count, seed):
        """Upload energy = p * T_com; splitting bandwidth makes each
        upload slower, so OFDMA pays MORE upload energy than TDMA at
        the same payload (p is fixed). Compute energy is identical."""
        devices = make_heterogeneous_devices(count, seed=seed)
        ofdma = simulate_ofdma_round(devices, PAYLOAD, BANDWIDTH)
        tdma = simulate_tdma_round(devices, PAYLOAD, BANDWIDTH)
        assert ofdma.total_compute_energy == pytest.approx(
            tdma.total_compute_energy
        )
        if count > 1:
            assert ofdma.total_upload_energy > tdma.total_upload_energy
