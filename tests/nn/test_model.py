"""Tests for the Sequential container, including flat-parameter access."""

import numpy as np
import pytest

from repro.errors import ShapeError
from repro.nn.activations import ReLU
from repro.nn.dense import Dense
from repro.nn.model import Sequential
from repro.nn.normalization import BatchNorm


def small_model(seed=0):
    return Sequential(
        [Dense(4, 8, seed=seed), ReLU(), Dense(8, 3, seed=seed + 1)]
    )


class TestForwardBackward:
    def test_forward_shape(self):
        model = small_model()
        assert model.forward(np.zeros((5, 4))).shape == (5, 3)

    def test_call_alias(self):
        model = small_model()
        x = np.random.default_rng(0).normal(size=(2, 4))
        assert np.array_equal(model(x), model.forward(x))

    def test_backward_returns_input_gradient_shape(self):
        model = small_model()
        x = np.random.default_rng(1).normal(size=(3, 4))
        out = model.forward(x, training=True)
        grad = model.backward(np.ones_like(out))
        assert grad.shape == x.shape

    def test_zero_grads(self):
        model = small_model()
        x = np.random.default_rng(2).normal(size=(3, 4))
        out = model.forward(x, training=True)
        model.backward(np.ones_like(out))
        model.zero_grads()
        for layer in model.layers:
            for grad in layer.grads.values():
                assert np.all(grad == 0.0)

    def test_rejects_non_layers(self):
        with pytest.raises(TypeError):
            Sequential([Dense(2, 2, seed=0), "not a layer"])


class TestFlatParams:
    def test_roundtrip_identity(self):
        model = small_model()
        flat = model.get_flat_params()
        model.set_flat_params(flat)
        assert np.array_equal(model.get_flat_params(), flat)

    def test_length_matches_parameter_count(self):
        model = small_model()
        assert model.get_flat_params().size == model.parameter_count

    def test_set_changes_forward(self):
        model = small_model()
        x = np.random.default_rng(3).normal(size=(2, 4))
        before = model.forward(x)
        model.set_flat_params(np.zeros(model.parameter_count))
        after = model.forward(x)
        assert not np.array_equal(before, after)
        assert np.allclose(after, 0.0)

    def test_set_preserves_array_identity(self):
        """In-place writes keep external references valid."""
        model = small_model()
        w_ref = model.layers[0].params["W"]
        model.set_flat_params(np.ones(model.parameter_count))
        assert model.layers[0].params["W"] is w_ref
        assert np.all(w_ref == 1.0)

    def test_wrong_length_raises(self):
        model = small_model()
        with pytest.raises(ShapeError):
            model.set_flat_params(np.zeros(3))


class TestUtilities:
    def test_clone_is_independent(self):
        model = small_model()
        clone = model.clone()
        clone.set_flat_params(np.zeros(clone.parameter_count))
        assert not np.allclose(model.get_flat_params(), 0.0)

    def test_predict_batched_matches_full(self):
        model = small_model()
        x = np.random.default_rng(6).normal(size=(10, 4))
        assert np.allclose(model.predict(x, batch_size=3), model.forward(x))

    def test_predict_classes(self):
        model = small_model()
        x = np.random.default_rng(7).normal(size=(6, 4))
        preds = model.predict_classes(x)
        assert preds.shape == (6,)
        assert np.all((preds >= 0) & (preds < 3))

    def test_clone_preserves_batchnorm_buffers(self):
        model = Sequential([Dense(3, 2, seed=0), BatchNorm(2)])
        x = np.random.default_rng(8).normal(size=(16, 3))
        model.forward(x, training=True)
        clone = model.clone()
        bn = clone.layers[1]
        assert np.array_equal(bn.running_mean, model.layers[1].running_mean)
