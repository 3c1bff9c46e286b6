"""Tests for the FLCC server."""

import numpy as np
import pytest

from repro.data.dataset import ArrayDataset
from repro.fl.server import FederatedServer
from repro.nn.architectures import build_mlp


def make_server(seed=0, with_test=True, payload_bits=None):
    rng = np.random.default_rng(seed)
    model = build_mlp(4, 3, hidden_sizes=(6,), seed=seed)
    test = None
    if with_test:
        test = ArrayDataset(
            rng.normal(size=(50, 4)), rng.integers(0, 3, size=50)
        )
    return FederatedServer(model, test_dataset=test, payload_bits=payload_bits)


class TestBroadcast:
    def test_broadcast_returns_copy(self):
        server = make_server()
        params = server.broadcast()
        params[...] = 0.0
        assert not np.allclose(server.model.get_flat_params(), 0.0)

    def test_broadcast_matches_model(self):
        server = make_server()
        assert np.array_equal(server.broadcast(), server.model.get_flat_params())


class TestAggregate:
    def test_aggregate_writes_global_model(self):
        server = make_server()
        target = np.ones(server.model.parameter_count)
        server.aggregate([target], [1.0])
        assert np.allclose(server.model.get_flat_params(), 1.0)

    def test_weighted_aggregate(self):
        server = make_server()
        n = server.model.parameter_count
        server.aggregate([np.zeros(n), np.ones(n)], [1.0, 3.0])
        assert np.allclose(server.model.get_flat_params(), 0.75)


class TestEvaluate:
    def test_returns_loss_and_accuracy(self):
        server = make_server()
        loss, accuracy = server.evaluate()
        assert loss > 0
        assert 0.0 <= accuracy <= 1.0

    def test_explicit_dataset(self):
        server = make_server(with_test=False)
        rng = np.random.default_rng(1)
        ds = ArrayDataset(rng.normal(size=(10, 4)), rng.integers(0, 3, size=10))
        loss, accuracy = server.evaluate(ds)
        assert np.isfinite(loss)

    def test_no_dataset_raises(self):
        server = make_server(with_test=False)
        with pytest.raises(ValueError):
            server.evaluate()

    def test_empty_dataset_raises(self):
        empty = ArrayDataset(np.zeros((0, 4)), np.zeros(0, dtype=int))
        server = make_server(with_test=False)
        with pytest.raises(ValueError, match="empty"):
            server.evaluate(empty)
        server.test_dataset = empty
        with pytest.raises(ValueError, match="empty"):
            server.evaluate()

    def test_explicit_batch_size_still_accepted(self):
        server = make_server()
        assert server.evaluate(batch_size=512) == server.evaluate()
        loss, accuracy = server.evaluate(batch_size=7)
        assert np.isclose(loss, server.evaluate()[0], rtol=1e-12)


class TestPayload:
    def test_default_payload_from_parameter_count(self):
        server = make_server()
        assert server.payload_bits == server.model.parameter_count * 32

    def test_explicit_payload(self):
        server = make_server(payload_bits=5e6)
        assert server.payload_bits == 5e6
