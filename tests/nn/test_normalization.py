"""Tests for BatchNorm."""

import numpy as np
import pytest

from repro.errors import ConfigurationError, ShapeError
from tests.nn.gradcheck import MeanSquaredError, numeric_gradient, relative_error
from repro.nn.normalization import BatchNorm


class TestForwardTraining:
    def test_normalizes_batch_2d(self):
        layer = BatchNorm(4)
        x = np.random.default_rng(0).normal(3.0, 2.0, size=(64, 4))
        out = layer.forward(x, training=True)
        assert np.allclose(out.mean(axis=0), 0.0, atol=1e-7)
        assert np.allclose(out.std(axis=0), 1.0, atol=1e-3)

    def test_normalizes_batch_4d(self):
        layer = BatchNorm(3)
        x = np.random.default_rng(1).normal(-1.0, 0.5, size=(8, 3, 5, 5))
        out = layer.forward(x, training=True)
        assert np.allclose(out.mean(axis=(0, 2, 3)), 0.0, atol=1e-7)

    def test_gamma_beta_applied(self):
        layer = BatchNorm(2)
        layer.params["gamma"][...] = np.array([2.0, 3.0])
        layer.params["beta"][...] = np.array([1.0, -1.0])
        x = np.random.default_rng(2).normal(size=(32, 2))
        out = layer.forward(x, training=True)
        assert np.allclose(out.mean(axis=0), [1.0, -1.0], atol=1e-7)

    def test_running_stats_updated(self):
        layer = BatchNorm(2, momentum=1.0)
        x = np.random.default_rng(3).normal(5.0, 1.0, size=(128, 2))
        layer.forward(x, training=True)
        assert np.allclose(layer.running_mean, x.mean(axis=0))

    def test_invalid_config(self):
        with pytest.raises(ConfigurationError):
            BatchNorm(0)
        with pytest.raises(ConfigurationError):
            BatchNorm(2, momentum=0.0)
        with pytest.raises(ConfigurationError):
            BatchNorm(2, eps=0.0)

    def test_wrong_channels_raise(self):
        with pytest.raises(ShapeError):
            BatchNorm(3).forward(np.zeros((2, 4)))


class TestForwardInference:
    def test_uses_running_stats(self):
        layer = BatchNorm(2, momentum=1.0)
        train_x = np.random.default_rng(4).normal(10.0, 2.0, size=(256, 2))
        layer.forward(train_x, training=True)
        test_x = np.full((4, 2), 10.0)
        out = layer.forward(test_x, training=False)
        # Inputs at the running mean normalize to ~0.
        assert np.allclose(out, 0.0, atol=0.1)

    def test_inference_does_not_update_stats(self):
        layer = BatchNorm(2)
        before = layer.running_mean.copy()
        layer.forward(np.random.default_rng(5).normal(size=(16, 2)), training=False)
        assert np.array_equal(layer.running_mean, before)


class TestBackward:
    @pytest.mark.parametrize("shape", [(8, 3), (4, 3, 3, 3)])
    def test_input_gradient_numeric(self, shape):
        rng = np.random.default_rng(6)
        layer = BatchNorm(3)
        layer.params["gamma"][...] = rng.uniform(0.5, 1.5, size=3)
        layer.params["beta"][...] = rng.normal(size=3)
        x = rng.normal(size=shape)
        out = layer.forward(x, training=True)
        target = rng.normal(size=out.shape)
        loss = MeanSquaredError()
        _, grad_out = loss.loss_and_grad(out, target)
        analytic = layer.backward(grad_out)

        def scalar(z):
            # Freeze the batch statistics implicitly by recomputing them
            # from the perturbed batch (that IS batchnorm training mode).
            return loss.loss(_train_forward(layer, z), target)

        def _train_forward(bn, z):
            saved = (bn.running_mean.copy(), bn.running_var.copy())
            result = bn.forward(z, training=True)
            bn.running_mean, bn.running_var = saved
            return result

        numeric = numeric_gradient(scalar, x.copy())
        assert relative_error(analytic, numeric) < 1e-5

    def test_gamma_beta_gradients_numeric(self):
        rng = np.random.default_rng(7)
        layer = BatchNorm(3)
        x = rng.normal(size=(10, 3))
        out = layer.forward(x, training=True)
        target = rng.normal(size=out.shape)
        loss = MeanSquaredError()
        _, grad_out = loss.loss_and_grad(out, target)
        layer.backward(grad_out)

        for name in ("gamma", "beta"):
            def scalar(v, pname=name):
                layer.params[pname][...] = v
                return loss.loss(layer.forward(x, training=True), target)

            v0 = layer.params[name].copy()
            numeric = numeric_gradient(scalar, v0.copy())
            layer.params[name][...] = v0
            assert relative_error(layer.grads[name], numeric) < 1e-5
