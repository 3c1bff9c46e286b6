"""Tests for FedCS deadline-constrained selection."""

import pytest

from repro.baselines.fedcs import FedCsSelection, fedcs_deadline_for_count
from repro.errors import ConfigurationError, SelectionError
from repro.network.tdma import simulate_tdma_round
from tests.conftest import (
    make_device,
    make_heterogeneous_devices,
    selected_ids,
)

PAYLOAD = 1e6
BANDWIDTH = 2e6


class TestDeadlineHelper:
    def test_deadline_fits_count_fastest(self):
        devices = make_heterogeneous_devices(10, seed=1)
        deadline = fedcs_deadline_for_count(devices, PAYLOAD, BANDWIDTH, 3)
        fastest = sorted(
            devices, key=lambda d: d.total_delay(PAYLOAD, BANDWIDTH)
        )[:3]
        timeline = simulate_tdma_round(fastest, PAYLOAD, BANDWIDTH)
        assert deadline == pytest.approx(timeline.round_delay)

    def test_count_clamped_to_population(self):
        devices = make_heterogeneous_devices(3)
        deadline = fedcs_deadline_for_count(devices, PAYLOAD, BANDWIDTH, 50)
        assert deadline > 0

    def test_invalid_inputs(self):
        with pytest.raises(SelectionError):
            fedcs_deadline_for_count([], PAYLOAD, BANDWIDTH, 2)
        with pytest.raises(SelectionError):
            fedcs_deadline_for_count(
                make_heterogeneous_devices(3), PAYLOAD, BANDWIDTH, 0
            )


class TestSelection:
    def test_selected_round_meets_deadline(self):
        devices = make_heterogeneous_devices(10, seed=2)
        deadline = fedcs_deadline_for_count(devices, PAYLOAD, BANDWIDTH, 4)
        strat = FedCsSelection(deadline, PAYLOAD, BANDWIDTH)
        selected = [devices[i] for i in selected_ids(strat, 1, devices)]
        timeline = simulate_tdma_round(selected, PAYLOAD, BANDWIDTH)
        assert timeline.round_delay <= deadline + 1e-9

    def test_prefers_short_delay_users(self):
        devices = make_heterogeneous_devices(10, seed=3)
        deadline = fedcs_deadline_for_count(devices, PAYLOAD, BANDWIDTH, 3)
        chosen = selected_ids(
            FedCsSelection(deadline, PAYLOAD, BANDWIDTH), 1, devices
        )
        slowest = max(devices, key=lambda d: d.total_delay(PAYLOAD, BANDWIDTH))
        assert slowest.device_id not in chosen

    def test_always_selects_at_least_one(self):
        devices = make_heterogeneous_devices(5, seed=4)
        strat = FedCsSelection(1e-6, PAYLOAD, BANDWIDTH)  # impossible deadline
        assert len(selected_ids(strat, 1, devices)) == 1

    def test_generous_deadline_selects_everyone(self):
        devices = make_heterogeneous_devices(5, seed=5)
        strat = FedCsSelection(1e9, PAYLOAD, BANDWIDTH)
        assert len(selected_ids(strat, 1, devices)) == 5

    def test_max_users_cap(self):
        devices = make_heterogeneous_devices(8, seed=6)
        strat = FedCsSelection(1e9, PAYLOAD, BANDWIDTH, max_users=2)
        assert len(selected_ids(strat, 1, devices)) == 2

    def test_deterministic_without_candidate_sampling(self):
        devices = make_heterogeneous_devices(8, seed=7)
        deadline = fedcs_deadline_for_count(devices, PAYLOAD, BANDWIDTH, 3)
        strat = FedCsSelection(deadline, PAYLOAD, BANDWIDTH)
        first = selected_ids(strat, 1, devices)
        second = selected_ids(strat, 2, devices)
        assert first == second

    def test_candidate_sampling_varies_selection(self):
        devices = make_heterogeneous_devices(20, seed=8)
        deadline = fedcs_deadline_for_count(devices, PAYLOAD, BANDWIDTH, 5)
        strat = FedCsSelection(
            deadline, PAYLOAD, BANDWIDTH, candidate_fraction=0.4, seed=0
        )
        rounds = [
            frozenset(selected_ids(strat, r, devices)) for r in range(1, 10)
        ]
        assert len(set(rounds)) > 1

    def test_candidate_sampling_reset_reproducible(self):
        devices = make_heterogeneous_devices(12, seed=9)
        deadline = fedcs_deadline_for_count(devices, PAYLOAD, BANDWIDTH, 4)
        strat = FedCsSelection(
            deadline, PAYLOAD, BANDWIDTH, candidate_fraction=0.5, seed=1
        )
        run1 = [selected_ids(strat, r, devices) for r in range(1, 4)]
        strat.reset()
        run2 = [selected_ids(strat, r, devices) for r in range(1, 4)]
        assert run1 == run2

    def test_slow_users_never_selected(self):
        """The coverage hole behind the paper's Fig. 2 observation."""
        fast = [make_device(device_id=i, f_max=2.0e9) for i in range(4)]
        slow = [
            make_device(device_id=4 + i, f_max=0.31e9, num_samples=200)
            for i in range(2)
        ]
        devices = fast + slow
        deadline = fedcs_deadline_for_count(devices, PAYLOAD, BANDWIDTH, 4)
        strat = FedCsSelection(deadline, PAYLOAD, BANDWIDTH)
        seen = set()
        for round_index in range(1, 20):
            seen.update(selected_ids(strat, round_index, devices))
        assert 4 not in seen and 5 not in seen


class TestValidation:
    def test_invalid_deadline(self):
        with pytest.raises(ConfigurationError):
            FedCsSelection(0.0, PAYLOAD, BANDWIDTH)

    def test_invalid_payload(self):
        with pytest.raises(ConfigurationError):
            FedCsSelection(1.0, 0.0, BANDWIDTH)

    @pytest.mark.parametrize(
        "field,value",
        [
            ("round_deadline_s", float("nan")),
            ("payload_bits", float("nan")),
            ("payload_bits", float("inf")),
            ("bandwidth_hz", float("nan")),
            ("bandwidth_hz", float("inf")),
        ],
    )
    def test_non_finite_value_rejected_by_name(self, field, value):
        kwargs = dict(round_deadline_s=1.0, payload_bits=PAYLOAD, bandwidth_hz=BANDWIDTH)
        kwargs[field] = value
        with pytest.raises(ConfigurationError, match=field):
            FedCsSelection(**kwargs)

    def test_invalid_max_users(self):
        with pytest.raises(ConfigurationError):
            FedCsSelection(1.0, PAYLOAD, BANDWIDTH, max_users=0)

    def test_invalid_candidate_fraction(self):
        with pytest.raises(ConfigurationError):
            FedCsSelection(1.0, PAYLOAD, BANDWIDTH, candidate_fraction=0.0)
        with pytest.raises(ConfigurationError):
            FedCsSelection(1.0, PAYLOAD, BANDWIDTH, candidate_fraction=1.5)
