"""Tests for the Dense layer."""

import numpy as np
import pytest

from repro.errors import ConfigurationError, ShapeError
from repro.nn.dense import Dense
from tests.nn.gradcheck import MeanSquaredError, numeric_gradient, relative_error


class TestForward:
    def test_affine_identity(self):
        layer = Dense(3, 3, seed=0)
        layer.params["W"][...] = np.eye(3)
        layer.params["b"][...] = np.array([1.0, 2.0, 3.0])
        x = np.array([[1.0, 0.0, -1.0]])
        assert np.allclose(layer.forward(x), [[2.0, 2.0, 2.0]])

    def test_output_shape(self):
        layer = Dense(5, 8, seed=0)
        assert layer.forward(np.zeros((4, 5))).shape == (4, 8)

    def test_wrong_input_dim_raises(self):
        with pytest.raises(ShapeError):
            Dense(3, 2, seed=0).forward(np.zeros((1, 4)))

    def test_wrong_rank_raises(self):
        with pytest.raises(ShapeError):
            Dense(3, 2, seed=0).forward(np.zeros((1, 3, 1)))

    def test_invalid_sizes_raise(self):
        with pytest.raises(ConfigurationError):
            Dense(0, 2)
        with pytest.raises(ConfigurationError):
            Dense(2, -1)

    def test_seeded_init_reproducible(self):
        a = Dense(4, 4, seed=9).params["W"]
        b = Dense(4, 4, seed=9).params["W"]
        assert np.array_equal(a, b)


class TestBackward:
    def test_parameter_count(self):
        assert Dense(5, 8, seed=0).parameter_count == 5 * 8 + 8

    def test_input_gradient_numeric(self):
        layer = Dense(6, 4, seed=0)
        rng = np.random.default_rng(0)
        x = rng.normal(size=(3, 6))
        target = rng.normal(size=(3, 4))
        loss = MeanSquaredError()
        out = layer.forward(x, training=True)
        _, grad_out = loss.loss_and_grad(out, target)
        analytic = layer.backward(grad_out)
        numeric = numeric_gradient(
            lambda z: loss.loss(layer.forward(z, training=False), target), x.copy()
        )
        assert relative_error(analytic, numeric) < 1e-6

    def test_weight_gradient_numeric(self):
        layer = Dense(4, 3, seed=1)
        rng = np.random.default_rng(1)
        x = rng.normal(size=(5, 4))
        target = rng.normal(size=(5, 3))
        loss = MeanSquaredError()
        out = layer.forward(x, training=True)
        _, grad_out = loss.loss_and_grad(out, target)
        layer.backward(grad_out)

        def scalar(w):
            layer.params["W"][...] = w
            return loss.loss(layer.forward(x, training=False), target)

        w0 = layer.params["W"].copy()
        numeric = numeric_gradient(scalar, w0.copy())
        layer.params["W"][...] = w0
        assert relative_error(layer.grads["W"], numeric) < 1e-6

    def test_bias_gradient_is_column_sum(self):
        layer = Dense(2, 3, seed=0)
        x = np.random.default_rng(2).normal(size=(7, 2))
        layer.forward(x, training=True)
        grad_out = np.random.default_rng(3).normal(size=(7, 3))
        layer.backward(grad_out)
        assert np.allclose(layer.grads["b"], grad_out.sum(axis=0))

    def test_backward_before_forward_raises(self):
        with pytest.raises(RuntimeError):
            Dense(2, 2, seed=0).backward(np.zeros((1, 2)))
