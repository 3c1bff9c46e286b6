"""Tests for trainer extensions: fading channels and the energy ledger."""

import numpy as np
import pytest

from repro.baselines.classic import RandomSelection
from repro.data.dataset import ArrayDataset
from repro.fl.server import FederatedServer
from repro.fl.trainer import FederatedTrainer, TrainerConfig
from repro.network.channel import RayleighFadingChannel
from repro.nn.architectures import build_mlp
from tests.conftest import make_heterogeneous_devices
from tests.full_participation import FullParticipation


class FixedGain:
    """A channel model whose every draw is the same gain."""

    def __init__(self, gain):
        self.gain = gain

    def sample_gain(self):
        return self.gain


def make_setup(num_devices=4, seed=0):
    devices = make_heterogeneous_devices(num_devices, seed=seed)
    rng = np.random.default_rng(seed + 60)
    test = ArrayDataset(rng.normal(size=(30, 4)), rng.integers(0, 3, size=30))
    model = build_mlp(4, 3, hidden_sizes=(6,), seed=seed)
    server = FederatedServer(model, test_dataset=test, payload_bits=1e6)
    return server, devices


class TestFadingChannels:
    def test_fading_varies_round_delays(self):
        server, devices = make_setup()
        models = {
            d.device_id: RayleighFadingChannel(mean_gain=1.0, seed=d.device_id)
            for d in devices
        }
        trainer = FederatedTrainer(
            server=server,
            devices=devices,
            selection=FullParticipation(),
            config=TrainerConfig(rounds=6, bandwidth_hz=2e6, learning_rate=0.1),
            channel_models=models,
        )
        history = trainer.run()
        delays = [r.round_delay for r in history.records]
        assert len(set(round(d, 9) for d in delays)) > 1

    def test_fixed_channel_keeps_delays_constant(self):
        server, devices = make_setup()
        models = {d.device_id: FixedGain(1.0) for d in devices}
        trainer = FederatedTrainer(
            server=server,
            devices=devices,
            selection=FullParticipation(),
            config=TrainerConfig(rounds=4, bandwidth_hz=2e6, learning_rate=0.1),
            channel_models=models,
        )
        history = trainer.run()
        delays = [r.round_delay for r in history.records]
        assert len(set(round(d, 9) for d in delays)) == 1

    def test_fading_deterministic_given_seeds(self):
        def run_once():
            server, devices = make_setup(seed=3)
            models = {
                d.device_id: RayleighFadingChannel(seed=100 + d.device_id)
                for d in devices
            }
            trainer = FederatedTrainer(
                server=server,
                devices=devices,
                selection=RandomSelection(0.5, seed=0),
                config=TrainerConfig(
                    rounds=5, bandwidth_hz=2e6, learning_rate=0.1
                ),
                channel_models=models,
            )
            return trainer.run().to_json()

        assert run_once() == run_once()

    def test_unmapped_devices_keep_static_gain(self):
        server, devices = make_setup()
        original = devices[1].radio.channel_gain
        models = {devices[0].device_id: RayleighFadingChannel(seed=0)}
        trainer = FederatedTrainer(
            server=server,
            devices=devices,
            selection=FullParticipation(),
            config=TrainerConfig(rounds=3, bandwidth_hz=2e6, learning_rate=0.1),
            channel_models=models,
        )
        trainer.run()
        assert devices[1].radio.channel_gain == original


class TestLedgerIntegration:
    def test_ledger_matches_history_totals(self):
        server, devices = make_setup(seed=5)
        trainer = FederatedTrainer(
            server=server,
            devices=devices,
            selection=RandomSelection(0.5, seed=0),
            config=TrainerConfig(rounds=6, bandwidth_hz=2e6, learning_rate=0.1),
        )
        history = trainer.run()
        assert trainer.ledger.total_joules == pytest.approx(
            history.total_energy
        )
        assert trainer.ledger.rounds_recorded == len(history)

    def test_ledger_attributes_energy_to_participants(self):
        server, devices = make_setup(seed=6)
        trainer = FederatedTrainer(
            server=server,
            devices=devices,
            selection=RandomSelection(0.5, seed=1),
            config=TrainerConfig(rounds=8, bandwidth_hz=2e6, learning_rate=0.1),
        )
        history = trainer.run()
        participation = history.participation_counts()
        for device_id, entry in trainer.ledger.devices.items():
            assert entry.rounds == participation[device_id]

    def test_ledger_reset_between_runs(self):
        server, devices = make_setup(seed=7)
        trainer = FederatedTrainer(
            server=server,
            devices=devices,
            selection=RandomSelection(0.5, seed=2),
            config=TrainerConfig(rounds=3, bandwidth_hz=2e6, learning_rate=0.1),
        )
        trainer.run()
        first_total = trainer.ledger.total_joules
        trainer.run()
        # Second run re-populates from scratch, not cumulatively.
        assert trainer.ledger.rounds_recorded == 3
        assert trainer.ledger.total_joules == pytest.approx(
            first_total, rel=0.5
        )
