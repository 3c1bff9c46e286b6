"""Tests for Conv2D."""

import numpy as np
import pytest

from repro.errors import ConfigurationError, ShapeError
from repro.nn.conv import Conv2D
from tests.nn.gradcheck import MeanSquaredError, numeric_gradient, relative_error


class TestForward:
    def test_output_shape_no_padding(self):
        layer = Conv2D(3, 8, 3, seed=0)
        assert layer.forward(np.zeros((2, 3, 6, 6))).shape == (2, 8, 4, 4)

    def test_output_shape_same_padding(self):
        layer = Conv2D(3, 8, 3, padding=1, seed=0)
        assert layer.forward(np.zeros((2, 3, 6, 6))).shape == (2, 8, 6, 6)

    def test_output_shape_stride(self):
        layer = Conv2D(1, 4, 2, stride=2, seed=0)
        assert layer.forward(np.zeros((1, 1, 8, 8))).shape == (1, 4, 4, 4)

    def test_identity_kernel(self):
        layer = Conv2D(1, 1, 1, seed=0)
        layer.params["W"][...] = 1.0
        x = np.random.default_rng(0).normal(size=(1, 1, 4, 4))
        assert np.allclose(layer.forward(x), x)

    def test_known_sum_kernel(self):
        layer = Conv2D(1, 1, 2, seed=0)
        layer.params["W"][...] = 1.0
        x = np.arange(9, dtype=float).reshape(1, 1, 3, 3)
        out = layer.forward(x)
        # Window sums of 2x2 patches.
        assert np.allclose(out[0, 0], [[0 + 1 + 3 + 4, 1 + 2 + 4 + 5],
                                       [3 + 4 + 6 + 7, 4 + 5 + 7 + 8]])

    def test_bias_added_per_filter(self):
        layer = Conv2D(1, 2, 1, seed=0)
        layer.params["W"][...] = 0.0
        layer.params["b"][...] = np.array([1.0, -2.0])
        out = layer.forward(np.zeros((1, 1, 2, 2)))
        assert np.allclose(out[0, 0], 1.0)
        assert np.allclose(out[0, 1], -2.0)

    def test_wrong_channels_raise(self):
        with pytest.raises(ShapeError):
            Conv2D(3, 4, 3, seed=0).forward(np.zeros((1, 2, 5, 5)))

    def test_invalid_config_raises(self):
        with pytest.raises(ConfigurationError):
            Conv2D(0, 4, 3)
        with pytest.raises(ConfigurationError):
            Conv2D(1, 4, 3, stride=0)
        with pytest.raises(ConfigurationError):
            Conv2D(1, 4, 3, padding=-1)

    def test_rectangular_kernel(self):
        layer = Conv2D(1, 2, (1, 3), seed=0)
        assert layer.forward(np.zeros((1, 1, 4, 5))).shape == (1, 2, 4, 3)


class TestBackward:
    def _setup(self, stride=1, padding=0, seed=0):
        rng = np.random.default_rng(seed)
        layer = Conv2D(2, 3, 3, stride=stride, padding=padding, seed=seed)
        x = rng.normal(size=(2, 2, 5, 5))
        out = layer.forward(x, training=True)
        target = rng.normal(size=out.shape)
        loss = MeanSquaredError()
        _, grad_out = loss.loss_and_grad(out, target)
        return layer, x, target, loss, grad_out

    @pytest.mark.parametrize("stride,padding", [(1, 0), (1, 1), (2, 1)])
    def test_input_gradient_numeric(self, stride, padding):
        layer, x, target, loss, grad_out = self._setup(stride, padding)
        analytic = layer.backward(grad_out)
        numeric = numeric_gradient(
            lambda z: loss.loss(layer.forward(z, training=False), target), x.copy()
        )
        assert relative_error(analytic, numeric) < 1e-5

    def test_weight_gradient_numeric(self):
        layer, x, target, loss, grad_out = self._setup()
        layer.backward(grad_out)

        def scalar(w):
            layer.params["W"][...] = w
            return loss.loss(layer.forward(x, training=False), target)

        w0 = layer.params["W"].copy()
        numeric = numeric_gradient(scalar, w0.copy())
        layer.params["W"][...] = w0
        assert relative_error(layer.grads["W"], numeric) < 1e-5

    def test_bias_gradient_numeric(self):
        layer, x, target, loss, grad_out = self._setup()
        layer.backward(grad_out)

        def scalar(b):
            layer.params["b"][...] = b
            return loss.loss(layer.forward(x, training=False), target)

        b0 = layer.params["b"].copy()
        numeric = numeric_gradient(scalar, b0.copy())
        layer.params["b"][...] = b0
        assert relative_error(layer.grads["b"], numeric) < 1e-5

    def test_backward_before_forward_raises(self):
        with pytest.raises(RuntimeError):
            Conv2D(1, 1, 1, seed=0).backward(np.zeros((1, 1, 2, 2)))


CONV_GRID = [
    (kernel, stride, padding)
    for kernel in [1, 3, (1, 3), (3, 2)]
    for stride in [1, 2]
    for padding in [0, 1]
]
CONV_IDS = [f"k{k}-s{s}-p{p}" for k, s, p in CONV_GRID]


def loop_conv(x, weights, bias, stride, padding):
    """Cross-correlation by explicit loops over output pixels."""
    n, _, h, w = x.shape
    filters, _, kh, kw = weights.shape
    padded = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    out_h = (h + 2 * padding - kh) // stride + 1
    out_w = (w + 2 * padding - kw) // stride + 1
    out = np.empty((n, filters, out_h, out_w))
    for i in range(out_h):
        for j in range(out_w):
            field = padded[:, :, i * stride : i * stride + kh, j * stride : j * stride + kw]
            out[:, :, i, j] = np.tensordot(field, weights, axes=([1, 2, 3], [1, 2, 3]))
    return out + bias[None, :, None, None]


class TestGeometryGrid:
    @pytest.mark.parametrize("kernel,stride,padding", CONV_GRID, ids=CONV_IDS)
    def test_forward_matches_loop_convolution(self, kernel, stride, padding):
        rng = np.random.default_rng(0)
        layer = Conv2D(2, 3, kernel, stride=stride, padding=padding, seed=0)
        layer.params["b"][...] = rng.normal(size=3)
        x = rng.normal(size=(2, 2, 5, 6))
        expected = loop_conv(x, layer.params["W"], layer.params["b"], stride, padding)
        assert np.allclose(layer.forward(x), expected, rtol=0.0, atol=1e-12)

    @pytest.mark.parametrize("kernel,stride,padding", CONV_GRID, ids=CONV_IDS)
    def test_gradients_numeric(self, kernel, stride, padding):
        rng = np.random.default_rng(1)
        layer = Conv2D(2, 3, kernel, stride=stride, padding=padding, seed=1)
        x = rng.normal(size=(2, 2, 5, 6))
        out = layer.forward(x, training=True)
        target = rng.normal(size=out.shape)
        loss = MeanSquaredError()
        _, grad_out = loss.loss_and_grad(out, target)
        grad_input = layer.backward(grad_out)

        def scalar(z):
            return loss.loss(layer.forward(z, training=False), target)

        assert relative_error(grad_input, numeric_gradient(scalar, x.copy())) < 1e-5
        for name in ("W", "b"):
            param = layer.params[name]

            def scalar_param(value, param=param):
                param[...] = value
                return loss.loss(layer.forward(x, training=False), target)

            start = param.copy()
            numeric = numeric_gradient(scalar_param, start.copy())
            param[...] = start
            assert relative_error(layer.grads[name], numeric) < 1e-5
