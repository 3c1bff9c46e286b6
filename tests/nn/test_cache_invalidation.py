"""Regression tests: inference forwards invalidate training caches.

Every cache-carrying layer used to keep its last training cache after a
``forward(..., training=False)`` call, so a subsequent ``backward``
silently differentiated the *older* training batch instead of raising.
Each layer now clears its cache on inference, making the stale
``backward`` raise the same ``RuntimeError`` as a never-trained layer.
"""

import numpy as np
import pytest

from repro.nn.activations import ReLU
from repro.nn.architectures.fire import Fire
from repro.nn.conv import Conv2D
from repro.nn.dense import Dense
from repro.nn.normalization import BatchNorm
from repro.nn.pooling import GlobalAvgPool2D, MaxPool2D
from repro.nn.reshape import Flatten

RNG = np.random.default_rng(7)

CASES = [
    ("dense", lambda: Dense(4, 3, seed=0), (5, 4)),
    ("conv2d", lambda: Conv2D(2, 3, 3, padding=1, seed=0), (2, 2, 5, 5)),
    ("conv2d_pointwise", lambda: Conv2D(2, 3, 1, seed=0), (2, 2, 4, 4)),
    ("conv2d_strided", lambda: Conv2D(2, 3, 3, stride=2, padding=1, seed=0), (2, 2, 5, 5)),
    ("conv2d_rectangular", lambda: Conv2D(2, 3, (1, 3), seed=0), (2, 2, 4, 5)),
    ("batchnorm_2d", lambda: BatchNorm(4), (6, 4)),
    ("batchnorm_4d", lambda: BatchNorm(2), (3, 2, 4, 4)),
    ("maxpool", lambda: MaxPool2D(2), (2, 2, 4, 4)),
    ("maxpool_overlapping", lambda: MaxPool2D(3, stride=1), (2, 2, 4, 4)),
    ("maxpool_padded", lambda: MaxPool2D(2, padding=1), (2, 2, 5, 5)),
    ("fire", lambda: Fire(4, 2, 3, seed=0), (2, 4, 4, 4)),
    ("globalavgpool", lambda: GlobalAvgPool2D(), (2, 3, 4, 4)),
    ("relu", lambda: ReLU(), (5, 4)),
    ("flatten", lambda: Flatten(), (3, 2, 4)),
]


@pytest.mark.parametrize(
    "make_layer,shape", [c[1:] for c in CASES], ids=[c[0] for c in CASES]
)
def test_inference_forward_invalidates_training_cache(make_layer, shape):
    layer = make_layer()
    batch = RNG.normal(size=shape)
    out = layer.forward(batch, training=True)
    layer.backward(np.ones_like(out))  # training cache present: works
    layer.forward(batch, training=False)
    with pytest.raises(RuntimeError):
        layer.backward(np.ones_like(out))


@pytest.mark.parametrize(
    "make_layer,shape", [c[1:] for c in CASES], ids=[c[0] for c in CASES]
)
def test_backward_before_any_forward_raises(make_layer, shape):
    layer = make_layer()
    with pytest.raises(RuntimeError):
        layer.backward(np.ones(shape))


def test_training_forward_restores_backward():
    layer = Conv2D(1, 2, 3, seed=0)
    batch = RNG.normal(size=(2, 1, 5, 5))
    layer.forward(batch, training=True)
    layer.forward(batch, training=False)
    out = layer.forward(batch, training=True)
    grad = layer.backward(np.ones_like(out))
    assert grad.shape == batch.shape
