"""Tests for the ReLU layer, including a numeric gradient check."""

import numpy as np
import pytest

from repro.nn.activations import ReLU
from tests.nn.gradcheck import MeanSquaredError, numeric_gradient, relative_error


def check_layer_gradient(layer, x, tol=1e-6):
    """Backprop gradient vs central differences through an MSE loss."""
    rng = np.random.default_rng(0)
    out = layer.forward(x, training=True)
    target = rng.normal(size=out.shape)
    loss = MeanSquaredError()
    _, grad_out = loss.loss_and_grad(out, target)
    analytic = layer.backward(grad_out)

    def scalar(z):
        return loss.loss(layer.forward(z, training=False), target)

    numeric = numeric_gradient(scalar, x.copy())
    assert relative_error(analytic, numeric) < tol


class TestReLU:
    def test_forward_values(self):
        relu = ReLU()
        x = np.array([[-1.0, 0.0, 2.0]])
        assert np.array_equal(relu.forward(x), [[0.0, 0.0, 2.0]])

    def test_gradient(self):
        x = np.random.default_rng(1).normal(size=(4, 7)) + 0.05
        check_layer_gradient(ReLU(), x)

    def test_backward_before_forward_raises(self):
        with pytest.raises(RuntimeError):
            ReLU().backward(np.ones((2, 2)))

    @pytest.mark.parametrize("layout", ["dense", "nchw", "channels_last"])
    def test_gradient_by_layout(self, layout):
        rng = np.random.default_rng(2)
        if layout == "dense":
            x = rng.normal(size=(5, 6))
        else:
            x = rng.normal(size=(2, 3, 4, 4))
        if layout == "channels_last":
            x = np.ascontiguousarray(x.transpose(0, 2, 3, 1)).transpose(0, 3, 1, 2)
        # Keep every input clear of the kink at zero.
        x = np.where(np.abs(x) < 0.05, 0.5, x)
        relu = ReLU()
        assert np.array_equal(relu.forward(x), np.where(x > 0, x, 0.0))
        check_layer_gradient(relu, x)
