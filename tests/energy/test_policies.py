"""Tests for the consolidated policies module."""

from repro.energy.policies import (
    FedlClosedFormPolicy,
    HelcflDvfsPolicy,
    MaxFrequencyPolicy,
)
from repro.network.tdma import simulate_tdma_round
from tests.conftest import assign, make_heterogeneous_devices

PAYLOAD = 1e6
BANDWIDTH = 2e6


class TestPolicyComparison:
    def test_energy_ordering_helcfl_vs_max(self):
        """HELCFL DVFS never spends more than max frequency."""
        devices = make_heterogeneous_devices(8, seed=1)
        max_freqs = assign(MaxFrequencyPolicy(), devices, PAYLOAD, BANDWIDTH)
        dvfs_freqs = assign(HelcflDvfsPolicy(), devices, PAYLOAD, BANDWIDTH)
        e_max = simulate_tdma_round(
            devices, PAYLOAD, BANDWIDTH, max_freqs
        ).total_energy
        e_dvfs = simulate_tdma_round(
            devices, PAYLOAD, BANDWIDTH, dvfs_freqs
        ).total_energy
        assert e_dvfs <= e_max + 1e-9

    def test_fedl_saves_energy_but_costs_delay(self):
        """FEDL's low-frequency operation trades delay for energy
        relative to max frequency (the paper's [12] behaviour)."""
        devices = make_heterogeneous_devices(8, seed=2)
        base = simulate_tdma_round(devices, PAYLOAD, BANDWIDTH)
        fedl_freqs = assign(
            FedlClosedFormPolicy(kappa=0.05), devices, PAYLOAD, BANDWIDTH
        )
        fedl = simulate_tdma_round(devices, PAYLOAD, BANDWIDTH, fedl_freqs)
        assert fedl.total_energy < base.total_energy
        assert fedl.round_delay >= base.round_delay

    def test_helcfl_keeps_round_delay_fedl_does_not_guarantee(self):
        """The key qualitative difference between the two policies."""
        devices = make_heterogeneous_devices(8, seed=3)
        base = simulate_tdma_round(devices, PAYLOAD, BANDWIDTH)
        dvfs_freqs = assign(HelcflDvfsPolicy(), devices, PAYLOAD, BANDWIDTH)
        dvfs = simulate_tdma_round(devices, PAYLOAD, BANDWIDTH, dvfs_freqs)
        assert dvfs.round_delay <= base.round_delay + 1e-9

    def test_all_policies_cover_all_devices(self):
        devices = make_heterogeneous_devices(5, seed=4)
        for policy in (
            MaxFrequencyPolicy(),
            HelcflDvfsPolicy(),
            FedlClosedFormPolicy(),
        ):
            freqs = assign(policy, devices, PAYLOAD, BANDWIDTH)
            assert set(freqs) == {d.device_id for d in devices}
