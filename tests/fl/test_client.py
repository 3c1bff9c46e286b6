"""Tests for the local client trainer (Eq. 3)."""

import numpy as np
import pytest

from repro.data.dataset import ArrayDataset
from repro.errors import ConfigurationError, TrainingError
from repro.fl.client import LocalTrainer
from repro.nn.architectures import build_cnn, build_mlp
from repro.nn.losses import SoftmaxCrossEntropy
from repro.nn.model import Sequential


def reference_step(model, learning_rate):
    """One gradient step written out: ``param -= lr * grad``."""
    for layer in model.layers:
        for name, param in layer.params.items():
            param -= learning_rate * layer.grads[name]


def dataset(n=20, seed=0):
    rng = np.random.default_rng(seed)
    return ArrayDataset(rng.normal(size=(n, 4)), rng.integers(0, 3, size=n))


class TestTraining:
    def test_single_step_matches_manual_gd(self):
        """Eq. 3: M' = M - (tau/|D|) sum grad — exactly one GD step."""
        ds = dataset()
        model = build_mlp(4, 3, hidden_sizes=(6,), seed=0)
        manual = model.clone()

        LocalTrainer(learning_rate=0.2, local_steps=1).train(model, ds)

        loss = SoftmaxCrossEntropy()
        logits = manual.forward(ds.inputs, training=True)
        _, grad = loss.loss_and_grad(logits, ds.labels)
        manual.backward(grad)
        reference_step(manual, 0.2)

        assert np.allclose(
            model.get_flat_params(), manual.get_flat_params(), atol=1e-12
        )

    def test_returns_loss_value(self):
        loss_value = LocalTrainer(0.1).train(
            build_mlp(4, 3, seed=1), dataset()
        )
        assert loss_value > 0

    def test_multiple_steps_reduce_loss(self):
        ds = dataset(50)
        model = build_mlp(4, 3, hidden_sizes=(8,), seed=2)
        trainer = LocalTrainer(learning_rate=0.3, local_steps=1)
        first = trainer.train(model, ds)
        many = LocalTrainer(learning_rate=0.3, local_steps=30)
        last = many.train(model, ds)
        assert last < first

    def test_minibatch_mode(self):
        ds = dataset(30)
        model = build_mlp(4, 3, seed=3)
        trainer = LocalTrainer(0.1, local_steps=2, batch_size=8, seed=0)
        before = model.get_flat_params().copy()
        trainer.train(model, ds)
        assert not np.allclose(model.get_flat_params(), before)

    def test_generator_is_built_on_first_draw_only(self):
        # Full-batch training never seeds a generator; mini-batching
        # seeds it once, from the seed given at construction.
        ds = dataset(30)
        full = LocalTrainer(0.1, seed=11)
        full.train(build_mlp(4, 3, seed=3), ds)
        assert full._generator is None
        lazy = LocalTrainer(0.1, batch_size=8, seed=11)
        assert lazy._generator is None
        model = build_mlp(4, 3, seed=3)
        lazy.train(model, ds)
        expected = build_mlp(4, 3, seed=3)
        first = np.random.default_rng(11).choice(30, size=8, replace=False)
        LocalTrainer(0.1).train(expected, ArrayDataset(*ds[first]))
        assert np.array_equal(
            model.get_flat_params(), expected.get_flat_params()
        )

    def test_batch_larger_than_dataset_uses_all(self):
        ds = dataset(5)
        model = build_mlp(4, 3, seed=4)
        LocalTrainer(0.1, batch_size=100, seed=0).train(model, ds)

    def test_empty_dataset_raises(self):
        empty = ArrayDataset(np.zeros((0, 4)), np.zeros(0, dtype=int))
        with pytest.raises(TrainingError):
            LocalTrainer(0.1).train(build_mlp(4, 3, seed=5), empty)


class FullBackward(Sequential):
    """Forms the first layer's data gradient whatever the caller asks."""

    def backward(self, grad_output, input_grad=True):
        return super().backward(grad_output)


class TestNoDataGradient:
    """``train`` skips the gradient w.r.t. the local data; the trained
    parameters are bit for bit those of a pass that forms it."""

    MODELS = {
        "dense_first": (lambda: build_mlp(12, 3, hidden_sizes=(6,), seed=7), (12,)),
        "conv_first": (lambda: build_cnn((3, 4, 4), 3, seed=7), (3, 4, 4)),
    }
    TRAINERS = {
        "full_batch": dict(local_steps=2),
        "mini_batch": dict(local_steps=3, batch_size=5, seed=4),
    }

    @pytest.mark.parametrize("trainer", sorted(TRAINERS))
    @pytest.mark.parametrize("model", sorted(MODELS))
    def test_same_parameters_as_with_data_gradient(self, model, trainer):
        build, shape = self.MODELS[model]
        rng = np.random.default_rng(1)
        ds = ArrayDataset(rng.normal(size=(16, *shape)), rng.integers(0, 3, size=16))
        skipped, formed = build(), build()
        formed.__class__ = FullBackward
        for target in (skipped, formed):
            LocalTrainer(0.3, **self.TRAINERS[trainer]).train(target, ds)
        assert (
            skipped.get_flat_params().tobytes() == formed.get_flat_params().tobytes()
        )
        # The skipped pass never staged the first conv's data gradient.
        assert "grad_cols" not in skipped.layers[0]._scratch
        assert ("grad_cols" in formed.layers[0]._scratch) == (model == "conv_first")

    def test_backward_default_still_returns_the_data_gradient(self):
        model = build_cnn((3, 4, 4), 3, seed=7)
        inputs = np.random.default_rng(2).normal(size=(5, 3, 4, 4))
        logits = model.forward(inputs, training=True)
        _, grad = SoftmaxCrossEntropy().loss_and_grad(logits, np.arange(5) % 3)
        assert model.backward(grad).shape == inputs.shape
        model.forward(inputs, training=True)
        assert model.backward(grad, input_grad=False) is None


class TestValidation:
    def test_invalid_learning_rate(self):
        with pytest.raises(ConfigurationError):
            LocalTrainer(learning_rate=0.0)

    def test_invalid_local_steps(self):
        with pytest.raises(ConfigurationError):
            LocalTrainer(0.1, local_steps=0)

    def test_invalid_batch_size(self):
        with pytest.raises(ConfigurationError):
            LocalTrainer(0.1, batch_size=0)
