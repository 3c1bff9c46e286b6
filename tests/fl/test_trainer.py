"""Integration tests for the synchronous FL trainer (Algorithm 1)."""

import numpy as np
import pytest

from repro.baselines.classic import RandomSelection
from repro.data.dataset import ArrayDataset
from repro.devices.battery import Battery
from repro.errors import ConfigurationError, TrainingError
from repro.experiments.runner import run_strategy
from repro.experiments.settings import ExperimentSettings
from repro.fl.server import FederatedServer
from repro.fl.trainer import FederatedTrainer, TrainerConfig
from repro.nn.architectures import build_mlp
from tests.conftest import make_heterogeneous_devices
from tests.full_participation import FullParticipation


def make_setup(num_devices=5, seed=0):
    devices = make_heterogeneous_devices(num_devices, seed=seed)
    rng = np.random.default_rng(seed + 100)
    test = ArrayDataset(rng.normal(size=(40, 4)), rng.integers(0, 3, size=40))
    model = build_mlp(4, 3, hidden_sizes=(8,), seed=seed)
    server = FederatedServer(model, test_dataset=test, payload_bits=1e6)
    return server, devices


def make_trainer(server, devices, **config_kwargs):
    defaults = dict(rounds=6, bandwidth_hz=2e6, learning_rate=0.2)
    defaults.update(config_kwargs)
    return FederatedTrainer(
        server=server,
        devices=devices,
        selection=RandomSelection(0.5, seed=0),
        config=TrainerConfig(**defaults),
        label="test-run",
    )


class TestConfigValidation:
    def test_defaults_valid(self):
        TrainerConfig()

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"rounds": 0},
            {"bandwidth_hz": 0.0},
            {"eval_every": 0},
            {"deadline_s": 0.0},
            {"target_accuracy": 1.5},
        ],
    )
    def test_invalid_configs(self, kwargs):
        with pytest.raises(ConfigurationError):
            TrainerConfig(**kwargs)

    @pytest.mark.parametrize(
        "name",
        [
            "bandwidth_hz",
            "learning_rate",
            "deadline_s",
            "round_deadline_s",
            "convergence_min_delta",
            "target_accuracy",
        ],
    )
    def test_nan_fails_every_guard(self, name):
        """``nan <= 0`` is False: NaN must not walk past a range check."""
        with pytest.raises(ConfigurationError, match=name):
            TrainerConfig(**{name: float("nan")})

    @pytest.mark.parametrize("name", ["bandwidth_hz", "learning_rate"])
    def test_infinite_rate_is_refused(self, name):
        with pytest.raises(ConfigurationError, match=name):
            TrainerConfig(**{name: float("inf")})

    @pytest.mark.parametrize(
        "name, value",
        [
            ("rounds", 2.5),
            ("rounds", True),
            ("rounds", float("nan")),
            ("local_steps", 1.5),
            ("local_steps", 0),
            ("eval_every", 1.5),
            ("eval_every", float("nan")),
            ("over_select_margin", 1.5),
            ("over_select_margin", -1),
            ("over_select_margin", False),
            ("checkpoint_every", 1.5),
            ("checkpoint_every", True),
            ("convergence_patience", 2.0),
            ("convergence_patience", float("nan")),
            ("batch_size", 8.0),
            ("batch_size", 0),
        ],
    )
    def test_counts_must_be_integers(self, name, value):
        """A float, NaN or bool count used to pass the range check."""
        with pytest.raises(ConfigurationError, match=name):
            TrainerConfig(**{name: value})

    def test_integer_counts_accepted(self):
        config = TrainerConfig(
            rounds=2,
            local_steps=3,
            eval_every=2,
            over_select_margin=0,
            checkpoint_every=1,
            convergence_patience=1,
            batch_size=1,
        )
        assert (config.rounds, config.local_steps, config.batch_size) == (2, 3, 1)

    @pytest.mark.parametrize(
        "overrides",
        [
            {"eval_every": 1.5},
            {"eval_every": float("nan")},
            {"rounds": 2.5},
            {"local_steps": 1.5},
            {"over_select_margin": 1.5},
        ],
    )
    def test_run_strategy_refuses_fractional_counts(self, overrides):
        """Through the experiment runner, before any round runs."""
        (name,) = overrides
        with pytest.raises(ConfigurationError, match=name):
            run_strategy(
                "helcfl",
                ExperimentSettings.quick(rounds=4),
                True,
                config_overrides=overrides,
            )


class TestRun:
    def test_history_has_all_rounds(self):
        server, devices = make_setup()
        history = make_trainer(server, devices).run()
        assert len(history) == 6
        assert history.label == "test-run"

    def test_cumulative_clock_monotone(self):
        server, devices = make_setup()
        history = make_trainer(server, devices).run()
        times = [r.cumulative_time for r in history.records]
        energies = [r.cumulative_energy for r in history.records]
        assert all(a < b for a, b in zip(times, times[1:]))
        assert all(a < b for a, b in zip(energies, energies[1:]))

    def test_cumulative_equals_sum_of_rounds(self):
        server, devices = make_setup()
        history = make_trainer(server, devices).run()
        assert history.total_time == pytest.approx(
            sum(r.round_delay for r in history.records)
        )
        assert history.total_energy == pytest.approx(
            sum(r.round_energy for r in history.records)
        )

    def test_training_improves_accuracy_over_initial(self):
        server, devices = make_setup(num_devices=6, seed=2)
        _, initial_acc = server.evaluate()
        history = make_trainer(server, devices, rounds=40).run()
        assert history.best_accuracy > initial_acc

    def test_global_model_changes(self):
        server, devices = make_setup()
        before = server.broadcast()
        make_trainer(server, devices, rounds=2).run()
        assert not np.allclose(server.broadcast(), before)

    def test_eval_every_skips_rounds(self):
        server, devices = make_setup()
        history = make_trainer(server, devices, rounds=6, eval_every=3).run()
        evaluated = [
            r.round_index for r in history.records if r.test_accuracy is not None
        ]
        assert evaluated == [3, 6]

    def test_deadline_stops_early(self):
        server, devices = make_setup()
        full = make_trainer(server, devices, rounds=10).run()
        per_round = full.records[0].round_delay
        server2, devices2 = make_setup()
        limited = make_trainer(
            server2, devices2, rounds=10, deadline_s=2.5 * per_round
        ).run()
        assert len(limited) < 10

    def test_target_accuracy_stops_early(self):
        server, devices = make_setup(num_devices=6, seed=2)
        history = make_trainer(
            server, devices, rounds=100, target_accuracy=0.4
        ).run()
        assert len(history) < 100
        assert history.best_accuracy >= 0.4

    def test_empty_population_rejected(self):
        server, _ = make_setup()
        with pytest.raises(TrainingError):
            FederatedTrainer(
                server=server,
                devices=[],
                selection=FullParticipation(),
            )

    def test_same_seed_reproducible(self):
        server1, devices1 = make_setup(seed=5)
        h1 = make_trainer(server1, devices1).run()
        server2, devices2 = make_setup(seed=5)
        h2 = make_trainer(server2, devices2).run()
        assert [r.selected_ids for r in h1.records] == [
            r.selected_ids for r in h2.records
        ]
        assert [r.test_accuracy for r in h1.records] == [
            r.test_accuracy for r in h2.records
        ]


class TestBatteryInjection:
    def test_depleted_devices_drop_updates(self):
        server, devices = make_setup(num_devices=4, seed=3)
        # Give every device a battery that affords roughly one round.
        for device in devices:
            round_cost = device.compute_energy() + device.upload_energy(
                1e6, 2e6
            )
            device.battery = Battery(capacity_joules=1.5 * round_cost)
        trainer = FederatedTrainer(
            server=server,
            devices=devices,
            selection=FullParticipation(),
            config=TrainerConfig(
                rounds=4, bandwidth_hz=2e6, learning_rate=0.2,
                enforce_battery=True,
            ),
        )
        history = trainer.run()
        dropped = [r.dropped_ids for r in history.records]
        assert any(dropped[i] for i in range(1, 4)), dropped

    def test_no_enforcement_by_default(self):
        server, devices = make_setup(num_devices=3, seed=4)
        for device in devices:
            device.battery = Battery(capacity_joules=1e-9)
        history = make_trainer(server, devices, rounds=2).run()
        assert all(r.dropped_ids == () for r in history.records)
