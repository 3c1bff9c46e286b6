"""Regression test for battery-round accounting semantics.

``train_loss`` in :class:`repro.fl.trainer.FederatedTrainer` was once
sample-weighted over every selected device, including battery-dropped
ones. It must be the weighted mean over the post-drop ``RoundResult``
actually aggregated.

The tests pin that with one device whose battery can never afford a
round, so it trains but is always dropped.
"""

import numpy as np

from repro.data.dataset import ArrayDataset
from repro.devices.battery import Battery
from repro.fl.server import FederatedServer
from repro.fl.trainer import FederatedTrainer, TrainerConfig
from repro.nn.architectures import build_mlp
from tests.conftest import make_heterogeneous_devices
from tests.full_participation import FullParticipation


def make_depleted_setup(num_devices=3, seed=1):
    """Build a server/device fleet where device 0 is always dropped."""
    devices = make_heterogeneous_devices(num_devices, seed=seed)
    devices[0].battery = Battery(capacity_joules=1e-9)
    rng = np.random.default_rng(seed + 100)
    test = ArrayDataset(rng.normal(size=(40, 4)), rng.integers(0, 3, size=40))
    model = build_mlp(4, 3, hidden_sizes=(8,), seed=seed)
    server = FederatedServer(model, test_dataset=test, payload_bits=1e6)
    return server, devices


def build_trainer(server, devices, selection, rounds=2):
    """A short battery-enforced training loop."""
    return FederatedTrainer(
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


def run_trainer(server, devices, selection, rounds=2):
    """Run a short battery-enforced training loop and return its history."""
    return build_trainer(server, devices, selection, rounds).run()


def run_recording_integrated(server, devices):
    """Run the loop; return its history and, per round, the
    ``{device id: loss}`` of the updates ``_aggregate`` integrated."""
    trainer = build_trainer(server, devices, FullParticipation())
    observed = []
    aggregate = trainer._aggregate

    def recording(state):
        integrated = state.integrated
        observed.append(
            dict(zip(integrated.device_ids.tolist(), integrated.losses.tolist()))
        )
        aggregate(state)

    trainer._aggregate = recording
    history = trainer.run()
    assert len(observed) == len(history.records)
    return history, observed


def assert_train_loss_over(devices, history, observed, integrated_ids):
    weights = {d.device_id: float(d.num_samples) for d in devices}
    for record, losses in zip(history.records, observed):
        assert set(losses) == integrated_ids
        total = sum(weights[i] for i in losses)
        expected = sum(
            losses[i] * weights[i] for i in losses
        ) / total
        assert record.train_loss == expected


class TestTrainLossOverSurvivors:
    def test_train_loss_excludes_dropped_updates(self):
        server, devices = make_depleted_setup()
        history, observed = run_recording_integrated(server, devices)
        assert all(r.dropped_ids == (0,) for r in history.records)
        assert_train_loss_over(
            devices, history, observed, {d.device_id for d in devices[1:]}
        )

    def test_train_loss_covers_everyone_without_drops(self):
        server, devices = make_depleted_setup()
        devices[0].battery = None  # no depletion anywhere
        history, observed = run_recording_integrated(server, devices)
        assert all(r.dropped_ids == () for r in history.records)
        assert_train_loss_over(
            devices, history, observed, {d.device_id for d in devices}
        )

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
