"""Regression tests for battery-round accounting semantics.

Two bugs were fixed in :class:`repro.fl.trainer.FederatedTrainer`:

1. Selection strategies observed training losses *before* the battery
   step, so Oort-style utilities learned from updates the server never
   integrated.  ``observe_losses`` must see only surviving updates.
2. ``train_loss`` was sample-weighted over every selected device,
   including battery-dropped ones.  It must be the weighted mean over
   the post-drop ``RoundResult`` actually aggregated.

Both tests pin the fixed behaviour with one device whose battery can
never afford a round, so it trains but is always dropped.
"""

import numpy as np

from repro.data.dataset import ArrayDataset
from repro.devices.battery import Battery
from repro.fl.server import FederatedServer
from repro.fl.trainer import FederatedTrainer, TrainerConfig
from repro.nn.architectures import build_mlp
from tests.conftest import make_heterogeneous_devices
from tests.full_participation import FullParticipation


class RecordingSelection(FullParticipation):
    """Full participation that records every ``observe_losses`` payload."""

    def __init__(self):
        super().__init__()
        self.observed = []

    def observe_losses(self, losses):
        """Capture the loss mapping handed back by the trainer."""
        self.observed.append(dict(losses))


def make_depleted_setup(num_devices=3, seed=1):
    """Build a server/device fleet where device 0 is always dropped."""
    devices = make_heterogeneous_devices(num_devices, seed=seed)
    devices[0].battery = Battery(capacity_joules=1e-9)
    rng = np.random.default_rng(seed + 100)
    test = ArrayDataset(rng.normal(size=(40, 4)), rng.integers(0, 3, size=40))
    model = build_mlp(4, 3, hidden_sizes=(8,), seed=seed)
    server = FederatedServer(model, test_dataset=test, payload_bits=1e6)
    return server, devices


def run_trainer(server, devices, selection, rounds=2):
    """Run a short battery-enforced training loop and return its history."""
    trainer = FederatedTrainer(
        server=server,
        devices=devices,
        selection=selection,
        config=TrainerConfig(
            rounds=rounds,
            bandwidth_hz=2e6,
            learning_rate=0.2,
            enforce_battery=True,
        ),
    )
    return trainer.run()


class TestObserveLossesAfterBattery:
    def test_dropped_devices_never_observed(self):
        server, devices = make_depleted_setup()
        selection = RecordingSelection()
        history = run_trainer(server, devices, selection)
        assert all(r.dropped_ids == (0,) for r in history.records)
        assert len(selection.observed) == len(history.records)
        surviving = {d.device_id for d in devices[1:]}
        for losses in selection.observed:
            assert set(losses) == surviving

    def test_all_survivors_observed_without_drops(self):
        server, devices = make_depleted_setup()
        devices[0].battery = None  # no depletion anywhere
        selection = RecordingSelection()
        history = run_trainer(server, devices, selection)
        everyone = {d.device_id for d in devices}
        assert all(r.dropped_ids == () for r in history.records)
        for losses in selection.observed:
            assert set(losses) == everyone


class TestTrainLossOverSurvivors:
    def test_train_loss_excludes_dropped_updates(self):
        server, devices = make_depleted_setup()
        selection = RecordingSelection()
        history = run_trainer(server, devices, selection)
        weights = {d.device_id: float(d.num_samples) for d in devices}
        for record, losses in zip(history.records, selection.observed):
            total = sum(weights[i] for i in losses)
            expected = sum(
                losses[i] * weights[i] for i in losses
            ) / total
            assert record.train_loss == expected

    def test_dropped_loss_actually_changes_the_mean(self):
        # Guard against the old bug silently matching: round 1 trains
        # identically with enforcement on or off (same initial model),
        # so any train_loss difference comes purely from excluding the
        # dropped device from the weighted mean.
        server_a, devices_a = make_depleted_setup()
        enforced = run_trainer(
            server_a, devices_a, FullParticipation(), rounds=1
        )
        server_b, devices_b = make_depleted_setup()
        trainer = FederatedTrainer(
            server=server_b,
            devices=devices_b,
            selection=FullParticipation(),
            config=TrainerConfig(
                rounds=1, bandwidth_hz=2e6, learning_rate=0.2,
                enforce_battery=False,
            ),
        )
        unenforced = trainer.run()
        assert enforced.records[0].dropped_ids == (0,)
        assert unenforced.records[0].dropped_ids == ()
        assert (
            enforced.records[0].train_loss
            != unenforced.records[0].train_loss
        )

    def test_empty_round_yields_zero_loss(self):
        server, devices = make_depleted_setup(num_devices=2)
        for device in devices:
            device.battery = Battery(capacity_joules=1e-9)
        history = run_trainer(server, devices, FullParticipation(), rounds=1)
        assert history.records[0].train_loss == 0.0
        assert set(history.records[0].dropped_ids) == {0, 1}
