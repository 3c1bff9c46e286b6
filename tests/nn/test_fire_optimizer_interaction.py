"""Tests for the gradient step's interaction with Fire modules' shared arrays.

Fire modules expose their child convolutions' parameter arrays under
prefixed names (``squeeze.W`` etc.). Because the child convs are NOT
listed as model layers, each parameter must be visited exactly once
per :meth:`Sequential.sgd_step`, and in-place updates must stay visible
through both the Fire dict and the child conv dict.
"""

import numpy as np

from repro.nn.architectures import Fire
from repro.nn.losses import SoftmaxCrossEntropy
from repro.nn.model import Sequential
from repro.nn.pooling import GlobalAvgPool2D


def fire_model(seed=0):
    return Sequential([Fire(3, 2, 5, seed=seed), GlobalAvgPool2D()])


def train_step(model, learning_rate, x, y):
    loss = SoftmaxCrossEntropy()
    logits = model.forward(x, training=True)
    value, grad = loss.loss_and_grad(logits, y)
    model.backward(grad)
    model.sgd_step(learning_rate)
    return value


class TestSharedArrays:
    def test_update_visible_through_child(self):
        model = fire_model()
        fire = model.layers[0]
        before = fire.squeeze.params["W"].copy()
        rng = np.random.default_rng(0)
        x = rng.normal(size=(4, 3, 4, 4))
        y = rng.integers(0, 10, size=4)
        train_step(model, 0.5, x, y)
        # The child conv sees the update because arrays are shared.
        assert not np.array_equal(fire.squeeze.params["W"], before)
        assert fire.params["squeeze.W"] is fire.squeeze.params["W"]

    def test_single_update_per_parameter(self):
        """An SGD step moves each param by exactly -lr * grad — if the
        shared arrays were double-visited the step would be doubled."""
        model = fire_model()
        rng = np.random.default_rng(1)
        x = rng.normal(size=(4, 3, 4, 4))
        y = rng.integers(0, 10, size=4)
        loss = SoftmaxCrossEntropy()
        logits = model.forward(x, training=True)
        _, grad = loss.loss_and_grad(logits, y)
        model.backward(grad)
        fire = model.layers[0]
        w_before = fire.params["squeeze.W"].copy()
        g = fire.grads["squeeze.W"].copy()
        model.sgd_step(0.1)
        expected = w_before - 0.1 * g
        assert np.allclose(fire.params["squeeze.W"], expected)

    def test_flat_params_cover_fire_children_once(self):
        model = fire_model()
        fire = model.layers[0]
        child_params = (
            fire.squeeze.parameter_count
            + fire.expand1.parameter_count
            + fire.expand3.parameter_count
        )
        assert model.parameter_count == child_params
        assert model.get_flat_params().size == child_params
