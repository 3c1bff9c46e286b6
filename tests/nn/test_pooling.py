"""Tests for pooling layers."""

import numpy as np
import pytest

from repro.errors import ConfigurationError, ShapeError
from tests.nn.gradcheck import MeanSquaredError, numeric_gradient, relative_error
from repro.nn.pooling import GlobalAvgPool2D, MaxPool2D


def gradient_check(layer, x, tol=1e-6):
    rng = np.random.default_rng(0)
    out = layer.forward(x, training=True)
    target = rng.normal(size=out.shape)
    loss = MeanSquaredError()
    _, grad_out = loss.loss_and_grad(out, target)
    analytic = layer.backward(grad_out)
    numeric = numeric_gradient(
        lambda z: loss.loss(layer.forward(z, training=False), target), x.copy()
    )
    assert relative_error(analytic, numeric) < tol


class TestMaxPool:
    def test_values(self):
        x = np.array([[[[1.0, 2.0], [3.0, 4.0]]]])
        assert MaxPool2D(2).forward(x)[0, 0, 0, 0] == 4.0

    def test_shape(self):
        out = MaxPool2D(2).forward(np.zeros((2, 3, 8, 8)))
        assert out.shape == (2, 3, 4, 4)

    def test_channels_independent(self):
        x = np.zeros((1, 2, 2, 2))
        x[0, 0] = [[5.0, 0.0], [0.0, 0.0]]
        x[0, 1] = [[0.0, 0.0], [0.0, 7.0]]
        out = MaxPool2D(2).forward(x)
        assert out[0, 0, 0, 0] == 5.0
        assert out[0, 1, 0, 0] == 7.0

    def test_gradient_routes_to_argmax(self):
        layer = MaxPool2D(2)
        x = np.array([[[[1.0, 2.0], [3.0, 4.0]]]])
        layer.forward(x, training=True)
        grad = layer.backward(np.ones((1, 1, 1, 1)))
        assert np.array_equal(grad, [[[[0.0, 0.0], [0.0, 1.0]]]])

    def test_gradient_numeric(self):
        # Distinct values so argmax is stable under perturbation.
        rng = np.random.default_rng(3)
        x = rng.permutation(64).astype(float).reshape(1, 4, 4, 4)
        gradient_check(MaxPool2D(2), x)

    def test_invalid_pool_size(self):
        with pytest.raises(ConfigurationError):
            MaxPool2D(0)

    def test_non_4d_raises(self):
        with pytest.raises(ShapeError):
            MaxPool2D(2).forward(np.zeros((4, 4)))


class TestGlobalAvgPool:
    def test_values(self):
        x = np.arange(8, dtype=float).reshape(1, 2, 2, 2)
        out = GlobalAvgPool2D().forward(x)
        assert np.allclose(out, [[1.5, 5.5]])

    def test_shape(self):
        assert GlobalAvgPool2D().forward(np.zeros((3, 5, 4, 4))).shape == (3, 5)

    def test_gradient_numeric(self):
        x = np.random.default_rng(5).normal(size=(2, 3, 3, 3))
        gradient_check(GlobalAvgPool2D(), x)

    def test_non_4d_raises(self):
        with pytest.raises(ShapeError):
            GlobalAvgPool2D().forward(np.zeros((2, 3)))


POOL_GRID = [
    (pool, stride, padding)
    for pool in [2, 3, (2, 3)]
    for stride in [None, 1, 2]
    for padding in [0, 1]
]
POOL_IDS = [f"k{k}-s{s}-p{p}" for k, s, p in POOL_GRID]


def distinct_values(shape, seed):
    """Half-integers of both signs, all distinct: no ties, no zeros."""
    size = int(np.prod(shape))
    order = np.random.default_rng(seed).permutation(size)
    return (order - size / 2 + 0.5).astype(float).reshape(shape)


def loop_max_pool(x, pool_h, pool_w, stride, padding):
    """Window maxima by explicit loops; padded zeros take part."""
    n, c, h, w = x.shape
    padded = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    out_h = (h + 2 * padding - pool_h) // stride + 1
    out_w = (w + 2 * padding - pool_w) // stride + 1
    out = np.empty((n, c, out_h, out_w))
    for i in range(out_h):
        for j in range(out_w):
            window = padded[
                :, :, i * stride : i * stride + pool_h, j * stride : j * stride + pool_w
            ]
            out[:, :, i, j] = window.max(axis=(2, 3))
    return out


class TestMaxPoolGrid:
    @pytest.mark.parametrize("pool,stride,padding", POOL_GRID, ids=POOL_IDS)
    def test_forward_matches_loop(self, pool, stride, padding):
        pool_h, pool_w = (pool, pool) if isinstance(pool, int) else pool
        x = distinct_values((2, 3, 6, 7), seed=0)
        out = MaxPool2D(pool, stride=stride, padding=padding).forward(x)
        expected = loop_max_pool(x, pool_h, pool_w, stride or pool_h, padding)
        assert np.array_equal(out, expected)

    @pytest.mark.parametrize("pool,stride,padding", POOL_GRID, ids=POOL_IDS)
    def test_gradient_numeric(self, pool, stride, padding):
        x = distinct_values((1, 2, 6, 7), seed=1)
        gradient_check(MaxPool2D(pool, stride=stride, padding=padding), x)
