"""Tests for reference architectures (MLP, CNN, Fire, Mini-SqueezeNet)."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.nn.architectures import Fire, build_cnn, build_mlp, build_mini_squeezenet
from repro.nn.losses import SoftmaxCrossEntropy
from tests.nn.gradcheck import MeanSquaredError, numeric_gradient, relative_error


class TestMlp:
    def test_output_shape(self):
        model = build_mlp(12, 5, hidden_sizes=(16, 8), seed=0)
        assert model.forward(np.zeros((3, 12))).shape == (3, 5)

    def test_spawns_two_generators_per_hidden_layer_plus_one(self):
        """The spawn count moves a passed-in generator's later children,
        so it is part of every model's bits."""
        rng = np.random.default_rng(5)
        build_mlp(4, 2, hidden_sizes=(8, 6), seed=rng)
        reference = np.random.default_rng(5).spawn(6)[5]
        assert rng.spawn(1)[0].random() == reference.random()

    def test_no_hidden_layers(self):
        model = build_mlp(4, 2, hidden_sizes=(), seed=0)
        assert len(model.layers) == 1

    def test_invalid_dims(self):
        with pytest.raises(ConfigurationError):
            build_mlp(0, 2)

    def test_seeded_reproducible(self):
        a = build_mlp(4, 2, seed=3).get_flat_params()
        b = build_mlp(4, 2, seed=3).get_flat_params()
        assert np.array_equal(a, b)

    def test_learns_linearly_separable_data(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(200, 2))
        y = (x[:, 0] + x[:, 1] > 0).astype(int)
        model = build_mlp(2, 2, hidden_sizes=(8,), seed=0)
        loss = SoftmaxCrossEntropy()
        for _ in range(200):
            logits = model.forward(x, training=True)
            _, grad = loss.loss_and_grad(logits, y)
            model.backward(grad)
            model.sgd_step(0.5)
        acc = np.mean(model.predict_classes(x) == y)
        assert acc > 0.95


class TestCnn:
    def test_output_shape(self):
        model = build_cnn((3, 8, 8), 10, seed=0)
        assert model.forward(np.zeros((2, 3, 8, 8))).shape == (2, 10)

    def test_without_batchnorm(self):
        model = build_cnn((1, 4, 4), 2, channels=(4,), batch_norm=False, seed=0)
        names = [type(l).__name__ for l in model.layers]
        assert "BatchNorm" not in names

    def test_invalid_input_shape(self):
        with pytest.raises(ConfigurationError):
            build_cnn((8, 8), 10)

    def test_backward_runs(self):
        model = build_cnn((3, 8, 8), 4, seed=0)
        x = np.random.default_rng(1).normal(size=(2, 3, 8, 8))
        out = model.forward(x, training=True)
        grad = model.backward(np.ones_like(out))
        assert grad.shape == x.shape


class TestFire:
    def test_output_channels(self):
        fire = Fire(16, 4, 8, seed=0)
        out = fire.forward(np.zeros((2, 16, 5, 5)))
        assert out.shape == (2, 16, 5, 5)  # 2 * expand = 16

    def test_parameters_exposed(self):
        fire = Fire(8, 4, 8, seed=0)
        names = set(fire.params)
        assert {"squeeze.W", "expand1.W", "expand3.W"} <= names

    def test_param_arrays_shared_with_children(self):
        fire = Fire(8, 4, 8, seed=0)
        assert fire.params["squeeze.W"] is fire.squeeze.params["W"]

    def test_input_gradient_numeric(self):
        rng = np.random.default_rng(2)
        fire = Fire(3, 2, 3, seed=2)
        x = rng.normal(size=(2, 3, 4, 4)) + 0.1
        out = fire.forward(x, training=True)
        target = rng.normal(size=out.shape)
        loss = MeanSquaredError()
        _, grad_out = loss.loss_and_grad(out, target)
        analytic = fire.backward(grad_out)
        numeric = numeric_gradient(
            lambda z: loss.loss(fire.forward(z, training=False), target), x.copy()
        )
        assert relative_error(analytic, numeric) < 1e-5

    def test_invalid_channels(self):
        with pytest.raises(ConfigurationError):
            Fire(8, 0, 4)


class TestMiniSqueezeNet:
    def test_output_shape(self):
        model = build_mini_squeezenet((3, 8, 8), 10, seed=0)
        assert model.forward(np.zeros((2, 3, 8, 8))).shape == (2, 10)

    def test_flat_roundtrip(self):
        model = build_mini_squeezenet(seed=0)
        flat = model.get_flat_params()
        model.set_flat_params(flat * 0.5)
        assert np.allclose(model.get_flat_params(), flat * 0.5)

    def test_backward_runs(self):
        model = build_mini_squeezenet(seed=1)
        x = np.random.default_rng(3).normal(size=(2, 3, 8, 8))
        out = model.forward(x, training=True)
        grad = model.backward(np.ones_like(out))
        assert grad.shape == x.shape

    def test_width_multiplier_scales_params(self):
        small = build_mini_squeezenet(width_multiplier=0.5, seed=0)
        large = build_mini_squeezenet(width_multiplier=2.0, seed=0)
        assert large.parameter_count > small.parameter_count

    def test_too_small_input_raises(self):
        with pytest.raises(ConfigurationError):
            build_mini_squeezenet((3, 2, 2), 10)

    def test_has_fire_modules(self):
        model = build_mini_squeezenet(seed=0)
        names = [type(l).__name__ for l in model.layers]
        assert names.count("Fire") == 3

    def test_trains_on_tiny_task(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=(40, 3, 8, 8))
        # Class determined by the sign of the mean of channel 0.
        y = (x[:, 0].mean(axis=(1, 2)) > 0).astype(int)
        model = build_mini_squeezenet((3, 8, 8), 2, seed=0)
        loss = SoftmaxCrossEntropy()
        first = None
        for step in range(60):
            logits = model.forward(x, training=True)
            value, grad = loss.loss_and_grad(logits, y)
            if first is None:
                first = value
            model.backward(grad)
            model.sgd_step(0.3)
        assert value < first
