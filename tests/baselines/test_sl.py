"""Tests for separated learning (SL)."""

import numpy as np
import pytest

from repro.baselines.sl import SeparatedLearningRunner
from repro.data.dataset import ArrayDataset
from repro.errors import ConfigurationError, TrainingError
from repro.experiments.runner import run_strategy
from repro.experiments.settings import ExperimentSettings
from repro.fl.server import FederatedServer
from repro.fl.trainer import TrainerConfig
from repro.nn.architectures import build_mlp
from tests.conftest import make_heterogeneous_devices


def make_runner(num_devices=4, rounds=3, seed=0, eval_users=None):
    devices = make_heterogeneous_devices(num_devices, seed=seed)
    rng = np.random.default_rng(seed + 50)
    test = ArrayDataset(rng.normal(size=(30, 4)), rng.integers(0, 3, size=30))
    model = build_mlp(4, 3, hidden_sizes=(6,), seed=seed)
    server = FederatedServer(model, test_dataset=test, payload_bits=1e6)
    config = TrainerConfig(rounds=rounds, bandwidth_hz=2e6, learning_rate=0.2)
    return SeparatedLearningRunner(
        server, devices, config=config, eval_users=eval_users, seed=seed
    ), server, devices


class TestRun:
    def test_produces_history(self):
        runner, _, _ = make_runner()
        history = runner.run()
        assert len(history) == 3
        assert history.label == "SL"

    def test_no_communication_costs(self):
        runner, _, _ = make_runner()
        history = runner.run()
        for record in history.records:
            assert record.upload_energy == 0.0
            assert record.slack == 0.0

    def test_round_delay_is_slowest_compute(self):
        runner, _, devices = make_runner()
        history = runner.run()
        expected = max(d.compute_delay() for d in devices)
        assert history.records[0].round_delay == pytest.approx(expected)

    def test_round_energy_is_total_compute(self):
        runner, _, devices = make_runner()
        history = runner.run()
        expected = sum(d.compute_energy() for d in devices)
        assert history.records[0].round_energy == pytest.approx(expected)

    def test_global_model_never_updated(self):
        runner, server, _ = make_runner()
        before = server.broadcast()
        runner.run()
        assert np.array_equal(server.broadcast(), before)

    def test_eval_subset_size_respected(self):
        runner, _, _ = make_runner(num_devices=6, eval_users=2)
        assert len(runner._eval_indices) == 2

    def test_eval_all_when_none(self):
        runner, _, _ = make_runner(num_devices=4, eval_users=None)
        assert len(runner._eval_indices) == 4

    def test_accuracy_recorded(self):
        runner, _, _ = make_runner(rounds=2)
        history = runner.run()
        assert history.records[-1].test_accuracy is not None
        assert 0.0 <= history.records[-1].test_accuracy <= 1.0

    def test_no_test_set_records_no_accuracy(self):
        # As the federated trainer does: no test set, no accuracy.
        runner, server, _ = make_runner(rounds=2)
        server.test_dataset = None
        history = runner.run()
        assert [r.test_accuracy for r in history.records] == [None, None]

    def test_minibatch_runs_reproduce(self):
        # Mini-batches are drawn from per-(round, device) seeds.
        settings = ExperimentSettings.quick(seed=7, rounds=3)
        first, second = (
            run_strategy(
                "sl", settings, iid=False, config_overrides={"batch_size": 4}
            ).to_json()
            for _ in range(2)
        )
        assert first == second

    def test_training_reduces_local_loss(self):
        runner, _, _ = make_runner(rounds=15, seed=3)
        history = runner.run()
        assert history.records[-1].train_loss < history.records[0].train_loss


class TestValidation:
    def test_empty_devices_rejected(self):
        _, server, _ = make_runner()
        with pytest.raises(TrainingError):
            SeparatedLearningRunner(server, [])

    def test_invalid_eval_users(self):
        _, server, devices = make_runner()
        with pytest.raises(ConfigurationError):
            SeparatedLearningRunner(server, devices, eval_users=0)
