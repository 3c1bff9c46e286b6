"""Tests for the nn hot-path buffer work.

Covers the out-buffer variants (``get_flat_params(out=)``,
``im2col(out=)``, ``col2im(padded_out=)``), the fused
``Sequential.sgd_step``, the in-place BatchNorm running-statistic
updates, the empty-input ``predict`` fix,
and that scratch-buffer reuse leaves layer outputs bitwise unchanged.
"""

import numpy as np
import pytest

from repro.errors import ShapeError
from repro.nn.activations import ReLU
from repro.nn.architectures import build_cnn, build_mini_squeezenet, build_mlp
from repro.nn.conv import Conv2D
from repro.nn.conv_utils import col2im, im2col
from repro.nn.dense import Dense
from repro.nn.losses import SoftmaxCrossEntropy
from repro.nn.model import Sequential
from repro.nn.normalization import BatchNorm
from repro.nn.reshape import Flatten

RNG = np.random.default_rng(11)


def make_model(seed=5):
    return Sequential(
        [
            Conv2D(1, 2, 3, padding=1, seed=seed),
            ReLU(),
            Flatten(),
            Dense(2 * 4 * 4, 3, seed=seed + 1),
        ]
    )


def reference_step(model, learning_rate):
    """One gradient step written out: ``param -= lr * grad``."""
    for layer in model.layers:
        for name, param in layer.params.items():
            param -= learning_rate * layer.grads[name]


class TestGetFlatParamsOut:
    def test_out_matches_fresh_vector(self):
        model = make_model()
        out = np.empty(model.parameter_count, dtype=np.float64)
        returned = model.get_flat_params(out=out)
        assert returned is out
        assert np.array_equal(out, model.get_flat_params())

    def test_wrong_length_rejected(self):
        model = make_model()
        with pytest.raises(ShapeError):
            model.get_flat_params(out=np.empty(3, dtype=np.float64))

    def test_wrong_dtype_rejected(self):
        model = make_model()
        with pytest.raises(ShapeError):
            model.get_flat_params(
                out=np.empty(model.parameter_count, dtype=np.float32)
            )

    def test_roundtrip_through_out_buffer(self):
        model = make_model()
        out = np.empty(model.parameter_count, dtype=np.float64)
        model.get_flat_params(out=out)
        clone = make_model(seed=9)
        clone.set_flat_params(out)
        assert np.array_equal(clone.get_flat_params(), out)


class TestFusedSgdStep:
    def test_bitwise_matches_reference_step(self):
        inputs = RNG.normal(size=(6, 1, 4, 4))
        labels = RNG.integers(0, 3, size=6)
        loss = SoftmaxCrossEntropy()
        fused, reference = make_model(), make_model()
        assert np.array_equal(
            fused.get_flat_params(), reference.get_flat_params()
        )
        for _ in range(3):
            for model in (fused, reference):
                out = model.forward(inputs, training=True)
                _, grad = loss.loss_and_grad(out, labels)
                model.backward(grad)
            fused.sgd_step(0.05)
            reference_step(reference, 0.05)
        assert np.array_equal(
            fused.get_flat_params(), reference.get_flat_params()
        )


ARCHITECTURES = {
    "mlp": (lambda: build_mlp(48, 3, hidden_sizes=(8, 6), seed=2), (6, 48)),
    "cnn": (lambda: build_cnn((3, 4, 4), 3, channels=(4,), dense_width=8, seed=3), (6, 3, 4, 4)),
    "mini_squeezenet": (
        lambda: build_mini_squeezenet((3, 8, 8), 3, width_multiplier=0.25, seed=4),
        (6, 3, 8, 8),
    ),
}


class TestSgdStepPerArchitecture:
    @pytest.mark.parametrize("learning_rate", [0.0, 0.05])
    @pytest.mark.parametrize("arch", sorted(ARCHITECTURES))
    def test_bitwise_matches_reference_step(self, arch, learning_rate):
        build, input_shape = ARCHITECTURES[arch]
        inputs = np.random.default_rng(12).normal(size=input_shape)
        labels = np.arange(input_shape[0]) % 3
        loss = SoftmaxCrossEntropy()
        fused, reference = build(), build()
        start = fused.get_flat_params()
        arrays = [id(param) for _, _, param in fused.named_parameters()]
        for _ in range(2):
            for model in (fused, reference):
                out = model.forward(inputs, training=True)
                _, grad = loss.loss_and_grad(out, labels)
                model.backward(grad)
            fused.sgd_step(learning_rate)
            reference_step(reference, learning_rate)
        after = fused.get_flat_params()
        assert np.array_equal(after, reference.get_flat_params())
        assert [id(param) for _, _, param in fused.named_parameters()] == arrays
        if learning_rate == 0.0:
            assert np.array_equal(after, start)
        else:
            assert not np.array_equal(after, start)


class TestImColOutBuffers:
    def test_im2col_out_matches_allocating_path(self):
        images = RNG.normal(size=(2, 3, 6, 6))
        want, oh, ow = im2col(images, 3, 3, 2, 1)
        out = np.empty_like(want)
        got, oh2, ow2 = im2col(images, 3, 3, 2, 1, out=out)
        assert got is out
        assert (oh, ow) == (oh2, ow2)
        assert np.array_equal(got, want)

    def test_im2col_bad_out_rejected(self):
        images = RNG.normal(size=(2, 3, 6, 6))
        with pytest.raises(ShapeError):
            im2col(images, 3, 3, 2, 1, out=np.empty((1, 1)))

    def test_col2im_padded_out_matches_allocating_path(self):
        images = RNG.normal(size=(2, 2, 5, 5))
        cols, _, _ = im2col(images, 3, 3, 1, 1)
        want = col2im(cols, images.shape, 3, 3, 1, 1)
        padded = np.empty((2, 2, 7, 7), dtype=np.float64)
        padded.fill(123.0)  # stale contents must be zeroed internally
        got = col2im(cols, images.shape, 3, 3, 1, 1, padded_out=padded)
        assert np.array_equal(got, want)

    def test_col2im_bad_padded_out_rejected(self):
        images = RNG.normal(size=(2, 2, 5, 5))
        cols, _, _ = im2col(images, 3, 3, 1, 1)
        with pytest.raises(ShapeError):
            col2im(cols, images.shape, 3, 3, 1, 1, padded_out=np.empty((1,)))


class TestScratchReuseIsTransparent:
    def test_repeated_conv_passes_are_bitwise_stable(self):
        layer = Conv2D(2, 3, 3, padding=1, seed=2)
        batch = RNG.normal(size=(4, 2, 5, 5))
        out1 = layer.forward(batch, training=True)
        grad1 = layer.backward(np.ones_like(out1))
        gw1 = layer.grads["W"].copy()
        out2 = layer.forward(batch, training=True)
        grad2 = layer.backward(np.ones_like(out2))
        assert np.array_equal(out1, out2)
        assert np.array_equal(grad1, grad2)
        assert np.array_equal(gw1, layer.grads["W"])

    def test_scratch_realloc_on_batch_size_change(self):
        layer = Conv2D(1, 2, 3, seed=2)
        small = RNG.normal(size=(2, 1, 5, 5))
        large = RNG.normal(size=(5, 1, 5, 5))
        for batch in (small, large, small):
            out = layer.forward(batch, training=True)
            grad = layer.backward(np.ones_like(out))
            assert grad.shape == batch.shape

    def test_conv_backward_grad_is_owned(self):
        # The returned gradient must survive the next backward (it is
        # copied out of layer scratch).
        layer = Conv2D(1, 2, 3, padding=1, seed=2)
        batch = RNG.normal(size=(2, 1, 4, 4))
        out = layer.forward(batch, training=True)
        grad_a = layer.backward(np.ones_like(out))
        snapshot = grad_a.copy()
        out = layer.forward(batch + 1.0, training=True)
        layer.backward(np.full_like(out, 2.0))
        assert np.array_equal(grad_a, snapshot)


class TestBatchNormInPlaceStats:
    def test_running_stats_arrays_keep_identity(self):
        layer = BatchNorm(3)
        mean_alias = layer.running_mean
        var_alias = layer.running_var
        batch = RNG.normal(size=(8, 3))
        layer.forward(batch, training=True)
        assert layer.running_mean is mean_alias
        assert layer.running_var is var_alias
        assert not np.array_equal(mean_alias, np.zeros(3))


class TestEmptyPredict:
    def test_predict_returns_correct_trailing_shape(self):
        model = make_model()
        empty = np.zeros((0, 1, 4, 4))
        out = model.predict(empty)
        assert out.shape == (0, 3)

    def test_predict_classes_on_empty_input(self):
        model = make_model()
        empty = np.zeros((0, 1, 4, 4))
        classes = model.predict_classes(empty)
        assert classes.shape == (0,)

    def test_dense_only_model(self):
        model = Sequential([Dense(4, 2, seed=0)])
        assert model.predict(np.zeros((0, 4))).shape == (0, 2)
        assert model.predict_classes(np.zeros((0, 4))).shape == (0,)
