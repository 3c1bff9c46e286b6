"""Tests for the compression pipeline and its trainer integration."""

import numpy as np
import pytest

from repro.compression.pipeline import CompressionPipeline
from repro.data.dataset import ArrayDataset
from repro.errors import ConfigurationError
from repro.fl.server import FederatedServer
from repro.fl.trainer import FederatedTrainer, TrainerConfig
from repro.nn.architectures import build_mlp
from tests.conftest import make_heterogeneous_devices
from tests.full_participation import FullParticipation


class TestPipeline:
    def test_quantized_roundtrip_close(self):
        pipeline = CompressionPipeline.quantized(bits=12)
        rng = np.random.default_rng(0)
        global_params = rng.normal(size=50)
        local_params = global_params + 0.01 * rng.normal(size=50)
        update = pipeline.process(0, global_params, local_params)
        assert np.allclose(update.params, local_params, atol=1e-4)
        assert update.compression_ratio > 2.0

    def test_topk_transmits_fraction(self):
        pipeline = CompressionPipeline.top_k(fraction=0.1, error_feedback=False)
        rng = np.random.default_rng(1)
        global_params = rng.normal(size=1000)
        local_params = global_params + rng.normal(size=1000)
        update = pipeline.process(0, global_params, local_params)
        # ~100 of 1000 entries at 42 bits each vs 32000 raw bits.
        assert update.compression_ratio > 5.0

    def test_per_client_state_isolated(self):
        pipeline = CompressionPipeline.top_k(fraction=0.5, error_feedback=True)
        base = np.zeros(2)
        # Client 0 builds a residual; client 1 must not see it.
        pipeline.process(0, base, np.array([10.0, 1.0]))
        update = pipeline.process(1, base, np.array([0.0, 0.0]))
        assert np.allclose(update.params, 0.0)

    def test_reset_clears_client_state(self):
        pipeline = CompressionPipeline.top_k(fraction=0.5, error_feedback=True)
        base = np.zeros(2)
        pipeline.process(0, base, np.array([10.0, 1.0]))
        pipeline.reset()
        update = pipeline.process(0, base, np.array([0.0, 0.0]))
        assert np.allclose(update.params, 0.0)

    def test_mismatched_lengths_raise(self):
        pipeline = CompressionPipeline.quantized(bits=8)
        with pytest.raises(ConfigurationError):
            pipeline.process(0, np.zeros(3), np.zeros(4))

    def test_factory_must_be_callable(self):
        with pytest.raises(ConfigurationError):
            CompressionPipeline("not callable")

    @pytest.mark.parametrize(
        "pipeline",
        [
            CompressionPipeline.top_k(fraction=0.1),
            CompressionPipeline.top_k(fraction=1.0, error_feedback=False),
            CompressionPipeline.quantized(bits=3),
            CompressionPipeline.quantized(bits=8, stochastic=True, seed=2),
        ],
        ids=["top_k", "top_k_all", "quantized", "stochastic"],
    )
    @pytest.mark.parametrize("dimension", [0, 1, 2, 7, 1000])
    def test_declared_size_is_every_payload_size(self, pipeline, dimension):
        rng = np.random.default_rng(dimension)
        for device_id, values in enumerate(
            (np.zeros(dimension), rng.normal(size=dimension))
        ):
            update = pipeline.process(device_id, np.zeros(dimension), values)
            assert update.payload_bits == pipeline.payload_bits(dimension)


class NonzeroCoder:
    """A stub compressor whose payload size depends on the data: it
    sends only the nonzero entries, 64 bits each."""

    def compress(self, vector):
        return NonzeroPayload(np.asarray(vector, dtype=np.float64).copy())

    @staticmethod
    def decompress(payload):
        return payload.values


class NonzeroPayload:
    def __init__(self, values):
        self.values = values
        self.payload_bits = 64.0 * np.count_nonzero(values)


class TestDeclaredPayloadSize:
    """The round is simulated before training with the declared size,
    so an upload of any other size is refused, not mis-simulated."""

    def test_data_dependent_size_is_refused_naming_the_device(self):
        pipeline = CompressionPipeline(NonzeroCoder, lambda dimension: 64.0 * dimension)
        assert pipeline.process(3, np.zeros(2), np.ones(2)).payload_bits == 128.0
        with pytest.raises(ConfigurationError, match="device 7's compressed upload"):
            pipeline.process(7, np.zeros(2), np.array([1.0, 0.0]))

    def test_undeclared_size_is_refused(self):
        pipeline = CompressionPipeline(NonzeroCoder)
        with pytest.raises(ConfigurationError, match="declares no payload size"):
            pipeline.payload_bits(4)

    def test_trainer_refuses_an_undeclared_pipeline_before_training(self):
        runs = TestTrainerIntegration()
        with pytest.raises(ConfigurationError, match="declares no payload size"):
            runs._run(CompressionPipeline(NonzeroCoder), rounds=1)

    def test_trainer_refuses_a_data_dependent_upload(self):
        # Not a multiple of 64: no upload of this coder has that size.
        runs = TestTrainerIntegration()
        pipeline = CompressionPipeline(
            NonzeroCoder, lambda dimension: 64.0 * dimension + 1.0
        )
        with pytest.raises(ConfigurationError, match="compressed upload"):
            runs._run(pipeline, rounds=1)


class TestTrainerIntegration:
    def _setup(self, seed=0):
        devices = make_heterogeneous_devices(4, seed=seed)
        rng = np.random.default_rng(seed + 10)
        test = ArrayDataset(
            rng.normal(size=(30, 4)), rng.integers(0, 3, size=30)
        )
        model = build_mlp(4, 3, hidden_sizes=(8,), seed=seed)
        server = FederatedServer(model, test_dataset=test, payload_bits=1e6)
        return server, devices

    def _run(self, compression, seed=0, rounds=5):
        server, devices = self._setup(seed)
        trainer = FederatedTrainer(
            server=server,
            devices=devices,
            selection=FullParticipation(),
            config=TrainerConfig(
                rounds=rounds, bandwidth_hz=2e6, learning_rate=0.2
            ),
            compression=compression,
        )
        return trainer.run()

    def test_compression_reduces_upload_energy(self):
        plain = self._run(None)
        compressed = self._run(CompressionPipeline.top_k(fraction=0.05))
        plain_upload = sum(r.upload_energy for r in plain.records)
        comp_upload = sum(r.upload_energy for r in compressed.records)
        assert comp_upload < 0.5 * plain_upload

    def test_compression_reduces_round_delay(self):
        plain = self._run(None)
        compressed = self._run(CompressionPipeline.quantized(bits=4))
        assert compressed.total_time < plain.total_time

    def test_compressed_training_still_learns(self):
        history = self._run(
            CompressionPipeline.top_k(fraction=0.2), rounds=30
        )
        first = history.records[0].train_loss
        last = history.records[-1].train_loss
        assert last < first

    def test_aggressive_compression_perturbs_trajectory(self):
        plain = self._run(None, rounds=4)
        lossy = self._run(CompressionPipeline.quantized(bits=2), rounds=4)
        # The lossy path must actually differ (it is not a no-op).
        assert [r.test_accuracy for r in plain.records] != [
            r.test_accuracy for r in lossy.records
        ]
