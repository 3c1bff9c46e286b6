"""Tests for the experiment runner."""

import numpy as np
import pytest

from repro.errors import ConfigurationError, DeviceError
from repro.experiments.runner import (
    STRATEGY_NAMES,
    build_environment,
    run_strategy,
)
from repro.experiments.settings import ExperimentSettings


@pytest.fixture(scope="module")
def quick_settings():
    return ExperimentSettings.quick(seed=11, rounds=6)


@pytest.fixture(scope="module")
def iid_env(quick_settings):
    return build_environment(quick_settings, iid=True)


class TestBuildEnvironment:
    def test_devices_match_partitions(self, iid_env, quick_settings):
        assert len(iid_env.devices) == quick_settings.num_users
        for device, part in zip(iid_env.devices, iid_env.partitions):
            assert device.dataset is part

    def test_mlp_inputs_flattened(self, iid_env, quick_settings):
        flat_dim = int(np.prod(quick_settings.image_shape))
        assert iid_env.test.inputs.shape[1] == flat_dim
        assert iid_env.partitions[0].inputs.ndim == 2

    def test_cnn_inputs_keep_shape(self):
        settings = ExperimentSettings.quick(seed=1, model="cnn")
        env = build_environment(settings, iid=True)
        assert env.test.inputs.shape[1:] == settings.image_shape

    def test_environment_deterministic(self, quick_settings):
        a = build_environment(quick_settings, iid=False)
        b = build_environment(quick_settings, iid=False)
        assert np.array_equal(a.partitions[3].labels, b.partitions[3].labels)
        assert [d.cpu.f_max for d in a.devices] == [
            d.cpu.f_max for d in b.devices
        ]


class TestRunStrategy:
    @pytest.mark.parametrize("name", STRATEGY_NAMES)
    def test_every_strategy_runs(self, name, quick_settings, iid_env):
        history = run_strategy(
            name, quick_settings, iid=True, environment=iid_env
        )
        assert len(history) >= 1
        assert history.total_time > 0
        assert history.total_energy > 0
        assert history.best_accuracy > 0

    @pytest.mark.parametrize("name", STRATEGY_NAMES)
    def test_every_strategy_runs_noniid(self, name, quick_settings):
        history = run_strategy(
            name,
            quick_settings,
            iid=False,
            config_overrides={"rounds": 3},
        )
        assert len(history) >= 1
        assert history.best_accuracy > 0

    def test_unknown_strategy_raises(self, quick_settings):
        with pytest.raises(ConfigurationError):
            run_strategy("bogus", quick_settings, iid=True)

    def test_full_participation_is_not_a_scheme(self, quick_settings):
        assert "full" not in STRATEGY_NAMES
        with pytest.raises(ConfigurationError, match="full"):
            run_strategy("full", quick_settings, iid=True)

    # Each constant once ran training to a NaN/inf round energy or a
    # raw numpy OverflowError; the fleet's spec now refuses it first.
    @pytest.mark.parametrize(
        "field,value",
        [
            ("switched_capacitance", -1e-28),
            ("switched_capacitance", float("nan")),
            ("switched_capacitance", float("inf")),
            ("transmit_power_w", float("inf")),
            ("noise_power_w", -1.0),
            ("cycles_per_sample", float("nan")),
            ("channel_gain", float("nan")),
            ("f_max_high_hz", float("nan")),
        ],
    )
    def test_bad_physical_constant_stops_before_round_one(self, field, value):
        settings = ExperimentSettings.quick(seed=11, rounds=2, **{field: value})
        with pytest.raises(DeviceError, match="must be finite and positive"):
            run_strategy("helcfl", settings, iid=True)

    def test_labels_applied(self, quick_settings, iid_env):
        history = run_strategy(
            "helcfl", quick_settings, iid=True, environment=iid_env
        )
        assert history.label == "HELCFL"

    def test_config_overrides(self, quick_settings, iid_env):
        history = run_strategy(
            "classic",
            quick_settings,
            iid=True,
            environment=iid_env,
            config_overrides={"rounds": 2},
        )
        assert len(history) == 2

    def test_same_environment_same_model_init(self, quick_settings, iid_env):
        """All strategies start from the same global model."""
        h1 = run_strategy(
            "helcfl", quick_settings, iid=True, environment=iid_env,
            config_overrides={"rounds": 1, "eval_every": 1},
        )
        h2 = run_strategy(
            "helcfl", quick_settings, iid=True, environment=iid_env,
            config_overrides={"rounds": 1, "eval_every": 1},
        )
        assert h1.records[0].test_accuracy == h2.records[0].test_accuracy

    def test_dvfs_run_matches_nodvfs_accuracy(self, quick_settings, iid_env):
        """Frequency scaling never changes the learning trajectory."""
        a = run_strategy(
            "helcfl", quick_settings, iid=True, environment=iid_env
        )
        b = run_strategy(
            "helcfl-nodvfs", quick_settings, iid=True, environment=iid_env
        )
        assert [r.test_accuracy for r in a.records] == [
            r.test_accuracy for r in b.records
        ]
        assert a.total_energy <= b.total_energy + 1e-9
