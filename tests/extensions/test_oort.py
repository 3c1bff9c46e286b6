"""Tests for the Oort-style selection extension."""

import numpy as np
import pytest

from repro.data.dataset import ArrayDataset
from repro.devices.population import DevicePopulation
from repro.errors import ConfigurationError
from repro.extensions.oort import OortSelection
from repro.fl.server import FederatedServer
from repro.fl.trainer import FederatedTrainer, TrainerConfig
from repro.nn.architectures import build_mlp
from tests.conftest import make_device, make_heterogeneous_devices, selected_ids

PAYLOAD = 1e6
BANDWIDTH = 2e6


def strategy(**kwargs):
    defaults = dict(
        fraction=0.4,
        payload_bits=PAYLOAD,
        bandwidth_hz=BANDWIDTH,
        seed=0,
    )
    defaults.update(kwargs)
    return OortSelection(**defaults)


class TestExploration:
    def test_first_round_is_pure_exploration(self):
        devices = make_heterogeneous_devices(10)
        strat = strategy()
        selected = selected_ids(strat, 1, devices)
        assert len(selected) == 4
        assert set(selected) == strat.ever_selected

    def test_eventually_explores_everyone(self):
        devices = make_heterogeneous_devices(10)
        strat = strategy(exploration_fraction=0.5)
        for round_index in range(1, 30):
            losses = dict.fromkeys(selected_ids(strat, round_index, devices), 1.0)
            strat.observe_losses(losses)
        assert strat.ever_selected == {d.device_id for d in devices}

    def test_no_exploration_slots_once_all_seen(self):
        devices = make_heterogeneous_devices(4)
        strat = strategy(fraction=1.0)
        selected_ids(strat, 1, devices)
        strat.observe_losses({d.device_id: 1.0 for d in devices})
        assert len(selected_ids(strat, 2, devices)) == 4


class TestUtility:
    def test_high_loss_users_preferred(self):
        devices = [make_device(device_id=i, f_max=1.0e9) for i in range(4)]
        strat = strategy(fraction=0.5, exploration_fraction=0.0)
        strat.ever_selected = {d.device_id for d in devices}
        strat.observe_losses({0: 0.1, 1: 5.0, 2: 0.2, 3: 4.0})
        assert set(selected_ids(strat, 2, devices)) == {1, 3}

    def test_slow_users_penalized(self):
        fast = make_device(device_id=0, f_max=2.0e9)
        slow = make_device(device_id=1, f_max=0.35e9, num_samples=200)
        strat = strategy(fraction=0.5, exploration_fraction=0.0,
                         penalty_exponent=4.0)
        strat.ever_selected = {0, 1}
        # Equal losses: the system penalty should decide.
        strat.observe_losses({0: 1.0, 1: 1.0})
        population = DevicePopulation.from_devices([fast, slow])
        fast_score, slow_score = strat.utilities(population)
        assert slow_score < (
            fast_score * slow.num_samples / fast.num_samples + 1e-9
        )

    def test_zero_penalty_ignores_system_speed(self):
        fast = make_device(device_id=0, f_max=2.0e9, num_samples=40)
        slow = make_device(device_id=1, f_max=0.35e9, num_samples=40)
        strat = strategy(penalty_exponent=0.0)
        strat.observe_losses({0: 1.0, 1: 1.0})
        population = DevicePopulation.from_devices([fast, slow])
        fast_score, slow_score = strat.utilities(population)
        assert fast_score == pytest.approx(slow_score)

    def test_explicit_preferred_duration_used(self):
        population = DevicePopulation.from_devices(
            [make_device(device_id=0, f_max=1.0e9)]
        )
        penalized, unpenalized = (
            strategy(preferred_round_s=preferred).utilities(population)
            for preferred in (1e-6, 1e9)
        )
        assert penalized[0] < unpenalized[0]
        assert unpenalized[0] == population.num_samples[0]


class TestFeedbackLoop:
    def test_trainer_feeds_losses_automatically(self):
        devices = make_heterogeneous_devices(6, seed=2)
        rng = np.random.default_rng(40)
        test = ArrayDataset(rng.normal(size=(30, 4)), rng.integers(0, 3, size=30))
        model = build_mlp(4, 3, hidden_sizes=(6,), seed=2)
        server = FederatedServer(model, test_dataset=test, payload_bits=PAYLOAD)
        strat = strategy(fraction=0.5)
        trainer = FederatedTrainer(
            server=server,
            devices=devices,
            selection=strat,
            config=TrainerConfig(rounds=4, bandwidth_hz=BANDWIDTH,
                                 learning_rate=0.2),
        )
        trainer.run()
        assert strat.last_losses  # populated by the hook
        assert all(v >= 0 for v in strat.last_losses.values())

    def test_reset_clears_state(self):
        devices = make_heterogeneous_devices(5)
        strat = strategy()
        selected_ids(strat, 1, devices)
        strat.observe_losses({0: 1.0})
        strat.reset()
        assert not strat.ever_selected
        assert not strat.last_losses

    def test_negative_loss_rejected(self):
        with pytest.raises(ConfigurationError):
            strategy().observe_losses({0: -1.0})


class TestValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"fraction": 0.0},
            {"payload_bits": 0.0},
            {"preferred_round_s": 0.0},
            {"penalty_exponent": -1.0},
            {"exploration_fraction": 1.5},
            {"payload_bits": float("nan")},
            {"payload_bits": float("inf")},
            {"bandwidth_hz": float("nan")},
            {"bandwidth_hz": float("inf")},
            {"preferred_round_s": float("nan")},
            {"penalty_exponent": float("nan")},
            {"penalty_exponent": float("inf")},
        ],
    )
    def test_invalid_parameters(self, kwargs):
        (field,) = kwargs
        with pytest.raises(ConfigurationError, match=field):
            strategy(**kwargs)
