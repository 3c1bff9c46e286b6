"""Tests for local fine-tuning personalization."""

import numpy as np
import pytest

from repro.errors import ConfigurationError, TrainingError
from repro.experiments.runner import build_environment
from repro.experiments.settings import ExperimentSettings
from repro.extensions.personalization import evaluate_personalization
from repro.fl.server import FederatedServer
from repro.nn.architectures import build_mlp


@pytest.fixture(scope="module")
def trained_setup():
    """A globally trained model plus the non-IID environment it saw."""
    settings = ExperimentSettings.quick(seed=33, rounds=40)
    environment = build_environment(settings, iid=False)
    # run_strategy builds its own server; rebuild one and retrain so we
    # hold the final global model object.
    model = settings.build_model(flattened=True)
    server = FederatedServer(
        model,
        test_dataset=environment.test,
        payload_bits=settings.payload_bits,
    )
    from repro.core.framework import build_helcfl_trainer

    build_helcfl_trainer(
        server,
        environment.devices,
        fraction=settings.fraction,
        decay=settings.decay,
        config=settings.trainer_config(),
    ).run()
    return server.model, environment


class TestEvaluatePersonalization:
    def test_report_shape(self, trained_setup):
        model, environment = trained_setup
        report = evaluate_personalization(
            model, environment.devices, max_users=8, seed=0
        )
        assert len(report.device_ids) == 8
        assert len(report.global_accuracies) == 8
        assert len(report.personalized_accuracies) == 8

    def test_personalization_helps_on_noniid_shards(self, trained_setup):
        """Each user holds 3-4 labels: fine-tuning should lift mean
        local accuracy above the global model's (the gain magnitude is
        seed-sensitive at the quick profile, so only the direction and
        a non-trivial win rate are asserted)."""
        model, environment = trained_setup
        report = evaluate_personalization(
            model, environment.devices, fine_tune_steps=10,
            learning_rate=0.1, seed=0,
        )
        assert report.mean_personalized > report.mean_global
        assert report.mean_gain > 0.0
        assert report.win_fraction() >= 0.3

    def test_global_model_not_mutated(self, trained_setup):
        model, environment = trained_setup
        before = model.get_flat_params().copy()
        evaluate_personalization(model, environment.devices, max_users=4)
        assert np.array_equal(model.get_flat_params(), before)

    def test_deterministic(self, trained_setup):
        model, environment = trained_setup
        a = evaluate_personalization(
            model, environment.devices, max_users=5, seed=3
        )
        b = evaluate_personalization(
            model, environment.devices, max_users=5, seed=3
        )
        assert a.personalized_accuracies == b.personalized_accuracies


def test_global_scores_ignore_the_fine_tuning():
    """A BatchNorm model's global column is the global model's own
    accuracy, however long the other users fine-tuned before."""
    settings = ExperimentSettings.quick(seed=7, model="cnn")
    environment = build_environment(settings, iid=False)
    model = settings.build_model(flattened=False)
    short, long = (
        evaluate_personalization(
            model, environment.devices, fine_tune_steps=steps, max_users=6, seed=7
        )
        for steps in (1, 5)
    )
    assert short.global_accuracies == long.global_accuracies


class TestValidation:
    def test_invalid_args(self, trained_setup):
        model, environment = trained_setup
        with pytest.raises(ConfigurationError):
            evaluate_personalization(
                model, environment.devices, fine_tune_steps=0
            )
        with pytest.raises(ConfigurationError):
            evaluate_personalization(
                model, environment.devices, holdout_fraction=1.0
            )
        with pytest.raises(ConfigurationError):
            evaluate_personalization(model, environment.devices, max_users=0)

    def test_no_usable_users_raises(self):
        from repro.data.dataset import ArrayDataset
        from repro.devices.cpu import DvfsCpu
        from repro.devices.device import UserDevice
        from repro.devices.radio import Radio

        tiny = UserDevice(
            device_id=0,
            cpu=DvfsCpu(0.3e9, 1e9),
            radio=Radio(),
            dataset=ArrayDataset(np.zeros((2, 4)), np.zeros(2, dtype=int)),
        )
        model = build_mlp(4, 3, seed=0)
        with pytest.raises(TrainingError):
            evaluate_personalization(model, [tiny])
