"""Tests for the semi-asynchronous trainer."""

import numpy as np
import pytest

from repro.data.dataset import ArrayDataset
from repro.errors import ConfigurationError, TrainingError
from repro.extensions.async_fl import SemiAsyncConfig, SemiAsyncTrainer
from repro.fl.server import FederatedServer
from repro.nn.architectures import build_mlp
from tests.conftest import make_heterogeneous_devices


def make_setup(num_devices=5, seed=0):
    devices = make_heterogeneous_devices(num_devices, seed=seed)
    rng = np.random.default_rng(seed + 30)
    test = ArrayDataset(rng.normal(size=(40, 4)), rng.integers(0, 3, size=40))
    model = build_mlp(4, 3, hidden_sizes=(8,), seed=seed)
    server = FederatedServer(model, test_dataset=test, payload_bits=1e6)
    return server, devices


class TestConfig:
    def test_staleness_weight_decays(self):
        config = SemiAsyncConfig(mixing_rate=0.6, staleness_exponent=0.5)
        weights = [config.staleness_weight(s) for s in range(5)]
        assert weights[0] == pytest.approx(0.6)
        assert all(a > b for a, b in zip(weights, weights[1:]))

    def test_zero_exponent_constant_weight(self):
        config = SemiAsyncConfig(staleness_exponent=0.0)
        assert config.staleness_weight(0) == config.staleness_weight(10)

    def test_negative_staleness_rejected(self):
        with pytest.raises(ConfigurationError):
            SemiAsyncConfig().staleness_weight(-1)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_updates": 0},
            {"mixing_rate": 0.0},
            {"mixing_rate": 1.5},
            {"staleness_exponent": -1.0},
            {"eval_every": 0},
            {"deadline_s": 0.0},
            {"staleness_exponent": float("nan")},
            {"staleness_exponent": float("inf")},
            {"learning_rate": float("nan")},
            {"learning_rate": float("inf")},
            {"learning_rate": -1.0},
            {"learning_rate": 0.0},
            {"bandwidth_hz": float("nan")},
            {"bandwidth_hz": float("inf")},
            {"local_steps": 0},
            {"deadline_s": float("nan")},
        ],
    )
    def test_invalid_configs(self, kwargs):
        (field,) = kwargs
        with pytest.raises(ConfigurationError, match=field):
            SemiAsyncConfig(**kwargs)


class TestRun:
    def test_produces_one_record_per_update(self):
        server, devices = make_setup()
        config = SemiAsyncConfig(max_updates=12, learning_rate=0.2)
        history = SemiAsyncTrainer(server, devices, config).run()
        assert len(history) == 12
        assert [r.round_index for r in history.records] == list(range(1, 13))

    def test_each_update_from_single_device(self):
        server, devices = make_setup()
        history = SemiAsyncTrainer(
            server, devices, SemiAsyncConfig(max_updates=10)
        ).run()
        for record in history.records:
            assert len(record.selected_ids) == 1

    def test_clock_monotone(self):
        server, devices = make_setup()
        history = SemiAsyncTrainer(
            server, devices, SemiAsyncConfig(max_updates=15)
        ).run()
        times = [r.cumulative_time for r in history.records]
        assert all(a <= b for a, b in zip(times, times[1:]))

    def test_fast_devices_contribute_more(self):
        server, devices = make_setup(num_devices=4, seed=2)
        history = SemiAsyncTrainer(
            server, devices, SemiAsyncConfig(max_updates=40)
        ).run()
        counts = history.participation_counts()
        fastest = min(devices, key=lambda d: d.compute_delay())
        slowest = max(devices, key=lambda d: d.compute_delay())
        assert counts.get(fastest.device_id, 0) >= counts.get(
            slowest.device_id, 0
        )

    def test_uploads_never_overlap(self):
        """Channel FIFO invariant: aggregation times are spaced by at
        least one upload delay once the channel saturates."""
        server, devices = make_setup(num_devices=6, seed=3)
        history = SemiAsyncTrainer(
            server, devices, SemiAsyncConfig(max_updates=30)
        ).run()
        upload_delay = devices[0].upload_delay(1e6, 2e6)
        times = [r.cumulative_time for r in history.records]
        gaps = [b - a for a, b in zip(times, times[1:])]
        assert all(gap >= upload_delay - 1e-9 for gap in gaps)

    def test_learning_progress(self):
        server, devices = make_setup(num_devices=6, seed=4)
        _, initial = server.evaluate()
        history = SemiAsyncTrainer(
            server,
            devices,
            SemiAsyncConfig(max_updates=120, learning_rate=0.3),
        ).run()
        assert history.best_accuracy > initial

    def test_deadline_stops_early(self):
        server, devices = make_setup()
        no_deadline = SemiAsyncTrainer(
            server, devices, SemiAsyncConfig(max_updates=50)
        ).run()
        cutoff = no_deadline.records[9].cumulative_time
        server2, devices2 = make_setup()
        limited = SemiAsyncTrainer(
            server2,
            devices2,
            SemiAsyncConfig(max_updates=50, deadline_s=cutoff),
        ).run()
        assert len(limited) <= 11

    def test_empty_population_rejected(self):
        server, _ = make_setup()
        with pytest.raises(TrainingError):
            SemiAsyncTrainer(server, [])

    def test_deterministic(self):
        server1, devices1 = make_setup(seed=5)
        h1 = SemiAsyncTrainer(
            server1, devices1, SemiAsyncConfig(max_updates=20)
        ).run()
        server2, devices2 = make_setup(seed=5)
        h2 = SemiAsyncTrainer(
            server2, devices2, SemiAsyncConfig(max_updates=20)
        ).run()
        assert h1.to_json() == h2.to_json()
