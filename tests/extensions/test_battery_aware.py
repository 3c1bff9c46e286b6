"""Tests for battery-aware selection gating."""

import numpy as np
import pytest

from repro.baselines.classic import RandomSelection
from repro.core.selection import GreedyDecaySelection
from repro.data.dataset import ArrayDataset
from repro.devices.battery import Battery
from repro.devices.population import DevicePopulation
from repro.errors import ConfigurationError, SelectionError
from repro.extensions.battery_aware import BatteryAwareSelection
from repro.extensions.oort import OortSelection
from repro.fl.checkpoint import load_checkpoint
from repro.fl.server import FederatedServer
from repro.fl.strategy import FullParticipation
from repro.fl.trainer import FederatedTrainer, TrainerConfig
from repro.nn.architectures import build_mlp
from tests.conftest import make_heterogeneous_devices, selected_ids
from tests.kill import run_killed_after


def with_batteries(devices, levels):
    for device, level in zip(devices, levels):
        device.battery = Battery(100.0, charge_joules=level * 100.0)
    return devices


class TestEligibility:
    def test_filters_low_battery_devices(self):
        devices = with_batteries(
            make_heterogeneous_devices(4), [1.0, 0.05, 1.0, 0.02]
        )
        strategy = BatteryAwareSelection(
            FullParticipation(), devices, min_level=0.1
        )
        assert selected_ids(strategy, 1, devices) == [0, 2]

    def test_devices_without_battery_always_eligible(self):
        devices = make_heterogeneous_devices(3)
        strategy = BatteryAwareSelection(
            FullParticipation(), devices, min_level=0.9
        )
        assert len(selected_ids(strategy, 1, devices)) == 3

    def test_round_budget_requirement(self):
        devices = make_heterogeneous_devices(2)
        # Plenty of level but absolute charge below one round's cost.
        cost = devices[0].compute_energy() + devices[0].upload_energy(1e6, 2e6)
        devices[0].battery = Battery(cost / 2.0)
        devices[1].battery = Battery(cost * 100.0)
        strategy = BatteryAwareSelection(
            FullParticipation(),
            devices,
            min_level=0.0,
            require_round_budget=True,
            payload_bits=1e6,
            bandwidth_hz=2e6,
        )
        assert selected_ids(strategy, 1, devices) == [1]

    def test_fallback_when_everyone_filtered(self):
        devices = with_batteries(make_heterogeneous_devices(3), [0.0, 0.0, 0.0])
        strategy = BatteryAwareSelection(
            FullParticipation(), devices, min_level=0.5
        )
        assert len(selected_ids(strategy, 1, devices)) == 3

    def test_strict_raises_when_everyone_filtered(self):
        devices = with_batteries(make_heterogeneous_devices(3), [0.0, 0.0, 0.0])
        strategy = BatteryAwareSelection(
            FullParticipation(), devices, min_level=0.5, strict=True
        )
        with pytest.raises(SelectionError):
            selected_ids(strategy, 1, devices)

    def test_delegates_to_inner_strategy(self):
        devices = with_batteries(
            make_heterogeneous_devices(10), [1.0] * 10
        )
        inner = RandomSelection(0.3, seed=0)
        strategy = BatteryAwareSelection(inner, devices, min_level=0.1)
        assert len(selected_ids(strategy, 1, devices)) == 3

    def test_positions_index_the_population_it_is_handed(self):
        """The inner strategy ranks the eligible sub-population; the
        gate answers in positions of its own input, here a reordered
        slice of the fleet."""
        devices = with_batteries(
            make_heterogeneous_devices(8), [1.0, 0.0, 1.0, 0.0, 1.0, 1.0, 0.0, 1.0]
        )
        strategy = BatteryAwareSelection(
            FullParticipation(), devices, min_level=0.5
        )
        view = DevicePopulation.from_devices(devices).take([7, 6, 1, 4, 0])
        positions = strategy.select_population(1, view)
        assert positions.tolist() == [0, 3, 4]
        assert view.device_ids[positions].tolist() == [7, 4, 0]

    def test_reset_propagates(self):
        devices = make_heterogeneous_devices(6)
        inner = RandomSelection(0.5, seed=1)
        strategy = BatteryAwareSelection(inner, devices, min_level=0.1)
        first = selected_ids(strategy, 1, devices)
        strategy.reset()
        again = selected_ids(strategy, 1, devices)
        assert first == again


class TestDelegation:
    def test_observe_losses_reaches_the_inner_strategy(self):
        inner = OortSelection(0.5, 1e6, 2e6, seed=0)
        strategy = BatteryAwareSelection(
            inner, make_heterogeneous_devices(4), min_level=0.0
        )
        strategy.observe_losses({0: 1.5})
        assert inner.last_losses == {0: 1.5}

    def test_state_dict_is_the_inner_strategy_state(self):
        devices = make_heterogeneous_devices(8)
        inner = GreedyDecaySelection(0.25, 0.5, 1e6, 2e6)
        strategy = BatteryAwareSelection(inner, devices, min_level=0.0)
        selected_ids(strategy, 1, devices)
        assert strategy.state_dict() == inner.state_dict()
        assert strategy.state_dict()["appearance_counts"]
        restored = GreedyDecaySelection(0.25, 0.5, 1e6, 2e6)
        BatteryAwareSelection(restored, devices).load_state_dict(
            strategy.state_dict()
        )
        assert restored.appearance_counts == inner.appearance_counts


def gated_trainer(inner, checkpoint_path=None):
    devices = make_heterogeneous_devices(12)
    rng = np.random.default_rng(40)
    test = ArrayDataset(rng.normal(size=(30, 4)), rng.integers(0, 3, size=30))
    server = FederatedServer(
        build_mlp(4, 3, hidden_sizes=(6,), seed=2),
        test_dataset=test,
        payload_bits=1e6,
    )
    return FederatedTrainer(
        server=server,
        devices=devices,
        selection=BatteryAwareSelection(inner(), devices, min_level=0.0),
        config=TrainerConfig(
            rounds=6, bandwidth_hz=2e6, learning_rate=0.2, checkpoint_every=1
        ),
        checkpoint_path=checkpoint_path,
    )


class TestResume:
    @pytest.mark.parametrize(
        "inner",
        [
            lambda: GreedyDecaySelection(0.25, 0.5, 1e6, 2e6),
            lambda: RandomSelection(0.25, seed=3),
        ],
        ids=["greedy_decay", "random"],
    )
    def test_resumed_run_selects_as_an_uninterrupted_one(self, inner, tmp_path):
        reference = gated_trainer(inner).run()
        path = str(tmp_path / "checkpoint.json")
        run_killed_after(gated_trainer(inner, path), 3)
        resumed = gated_trainer(inner).run(resume_from=load_checkpoint(path))
        assert [r.selected_ids for r in resumed.records] == [
            r.selected_ids for r in reference.records
        ]
        assert resumed.to_json() == reference.to_json()


class TestValidation:
    def test_inner_must_be_strategy(self):
        with pytest.raises(ConfigurationError):
            BatteryAwareSelection("nope", make_heterogeneous_devices(2))

    def test_min_level_range(self):
        with pytest.raises(ConfigurationError):
            BatteryAwareSelection(
                FullParticipation(), make_heterogeneous_devices(2), min_level=1.5
            )

    def test_round_budget_needs_network_params(self):
        with pytest.raises(ConfigurationError):
            BatteryAwareSelection(
                FullParticipation(),
                make_heterogeneous_devices(2),
                require_round_budget=True,
            )
