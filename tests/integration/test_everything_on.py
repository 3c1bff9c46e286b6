"""The everything-on integration test.

Exercises every optional trainer feature simultaneously — HELCFL
greedy-decay selection, Algorithm 3 DVFS, update quantization,
per-round Rayleigh fading, battery enforcement, a plateau convergence
exit, and the energy ledger — on a Dirichlet non-IID partition. If the
features compose incorrectly anywhere, this is where it surfaces.
"""

import numpy as np
import pytest

from repro.compression.pipeline import CompressionPipeline
from repro.core.frequency import HelcflDvfsPolicy
from repro.core.selection import GreedyDecaySelection
from repro.devices.battery import Battery
from repro.experiments.runner import build_environment
from repro.experiments.settings import ExperimentSettings
from repro.fl.server import FederatedServer
from repro.fl.trainer import FederatedTrainer, TrainerConfig
from repro.network.channel import RayleighFadingChannel

SETTINGS = ExperimentSettings.quick(
    seed=31, rounds=25, fraction=0.4, noniid_kind="dirichlet",
    dirichlet_alpha=0.3,
)


def build_everything_on(settings):
    """A fresh environment with finite batteries, and the trainer."""
    environment = build_environment(settings, iid=False)
    for device in environment.devices:
        per_round = device.compute_energy() + device.upload_energy(
            settings.payload_bits, settings.bandwidth_hz
        )
        device.battery = Battery(capacity_joules=30.0 * per_round)
    model = settings.build_model(flattened=True)
    server = FederatedServer(
        model,
        test_dataset=environment.test,
        payload_bits=settings.payload_bits,
    )
    return FederatedTrainer(
        server=server,
        devices=environment.devices,
        selection=GreedyDecaySelection(
            settings.fraction,
            settings.decay,
            settings.payload_bits,
            settings.bandwidth_hz,
        ),
        frequency_policy=HelcflDvfsPolicy(),
        config=TrainerConfig(
            rounds=25,
            bandwidth_hz=settings.bandwidth_hz,
            learning_rate=settings.learning_rate,
            enforce_battery=True,
            convergence_patience=20,
            convergence_min_delta=1e-6,
        ),
        compression=CompressionPipeline.quantized(bits=10),
        channel_models={
            d.device_id: RayleighFadingChannel(
                mean_gain=1.0, seed=500 + d.device_id
            )
            for d in environment.devices
        },
        label="everything-on",
    )


@pytest.fixture(scope="module")
def history_and_trainer():
    trainer = build_everything_on(SETTINGS)
    return trainer.run(), trainer, SETTINGS


class TestEverythingOn:
    def test_run_completes(self, history_and_trainer):
        history, _, _ = history_and_trainer
        assert len(history) >= 1

    def test_learning_happens(self, history_and_trainer):
        history, _, _ = history_and_trainer
        assert history.best_accuracy > 0.12  # above 10-class chance

    def test_clock_and_energy_monotone(self, history_and_trainer):
        history, _, _ = history_and_trainer
        times = [r.cumulative_time for r in history.records]
        energies = [r.cumulative_energy for r in history.records]
        assert all(a < b for a, b in zip(times, times[1:]))
        assert all(a < b for a, b in zip(energies, energies[1:]))

    def test_compression_reduced_payloads(self, history_and_trainer):
        """Upload energy per round must reflect the ~3x-compressed
        payload rather than the nominal one."""
        history, trainer, settings = history_and_trainer
        nominal_upload = None
        for record in history.records:
            ids = record.selected_ids
            if not ids:
                continue
            device = next(
                d for d in trainer.devices if d.device_id == ids[0]
            )
            nominal_upload = device.upload_energy(
                settings.payload_bits, settings.bandwidth_hz
            )
            break
        assert nominal_upload is not None
        mean_selected = np.mean(
            [len(r.selected_ids) for r in history.records]
        )
        mean_upload = np.mean([r.upload_energy for r in history.records])
        # Fading perturbs per-device upload costs, but 10-bit codes are
        # ~3.2x smaller than 32-bit floats, far outside fading noise.
        assert mean_upload < 0.7 * nominal_upload * mean_selected

    def test_fading_varied_rounds(self, history_and_trainer):
        history, _, _ = history_and_trainer
        delays = {round(r.round_delay, 9) for r in history.records}
        assert len(delays) > 1

    def test_ledger_populated(self, history_and_trainer):
        history, trainer, _ = history_and_trainer
        assert trainer.ledger.rounds_recorded == len(history)
        assert trainer.ledger.total_joules == pytest.approx(
            history.total_energy
        )

    def test_deterministic_end_to_end(self, history_and_trainer):
        """The whole stack is reproducible despite every stochastic
        feature being active (all draws are seeded)."""
        history, _, settings = history_and_trainer
        rerun = build_everything_on(settings).run()
        assert rerun.to_json() == history.to_json()
