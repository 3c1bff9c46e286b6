"""Convenience builders for MLP and small-CNN models."""

from __future__ import annotations

from typing import Sequence

from repro.errors import ConfigurationError
from repro.nn.activations import ReLU
from repro.nn.conv import Conv2D
from repro.nn.dense import Dense
from repro.nn.model import Sequential
from repro.nn.normalization import BatchNorm
from repro.nn.pooling import MaxPool2D
from repro.nn.reshape import Flatten
from repro.rng import SeedLike, spawn_generators

__all__ = ["build_mlp", "build_cnn"]


def build_mlp(
    input_dim: int,
    num_classes: int,
    hidden_sizes: Sequence[int] = (64,),
    seed: SeedLike = None,
) -> Sequential:
    """Build a ReLU multi-layer perceptron classifier.

    Args:
        input_dim: flattened input dimensionality.
        num_classes: output class count.
        hidden_sizes: widths of the hidden layers, in order.
        seed: seed or generator for all weight initializers.

    Returns:
        A :class:`~repro.nn.model.Sequential` emitting raw logits.
    """
    if input_dim <= 0 or num_classes <= 0:
        raise ConfigurationError(
            f"input_dim and num_classes must be positive, got "
            f"{input_dim}, {num_classes}"
        )
    # Spawning advances a passed-in generator's child counter, so the
    # count, one unused generator per hidden layer included, is part of
    # the model's bits.
    rngs = spawn_generators(seed, 2 * len(hidden_sizes) + 1)
    layers = []
    previous = int(input_dim)
    for rng, width in zip(rngs, hidden_sizes):
        layers.append(Dense(previous, int(width), seed=rng))
        layers.append(ReLU())
        previous = int(width)
    layers.append(
        Dense(previous, int(num_classes), seed=rngs[len(hidden_sizes)])
    )
    return Sequential(layers)


def build_cnn(
    input_shape: Sequence[int],
    num_classes: int,
    channels: Sequence[int] = (16, 32),
    dense_width: int = 64,
    batch_norm: bool = True,
    seed: SeedLike = None,
) -> Sequential:
    """Build a small VGG-style CNN: [conv-(bn)-relu-pool]* then dense.

    Args:
        input_shape: CHW input shape, e.g. ``(3, 8, 8)``.
        num_classes: output class count.
        channels: output channels of each conv stage; every stage halves
            the spatial size with 2x2 max pooling.
        dense_width: width of the hidden dense layer before the logits.
        batch_norm: insert :class:`BatchNorm` after each convolution.
        seed: seed or generator for all weight initializers.

    Returns:
        A :class:`~repro.nn.model.Sequential` emitting raw logits.
    """
    if len(input_shape) != 3:
        raise ConfigurationError(
            f"input_shape must be (channels, height, width), got {input_shape}"
        )
    c, h, w = (int(v) for v in input_shape)
    if min(c, h, w) <= 0 or num_classes <= 0:
        raise ConfigurationError(
            f"input dims and num_classes must be positive, got "
            f"{input_shape}, {num_classes}"
        )
    rngs = spawn_generators(seed, len(channels) + 2)
    layers = []
    in_channels = c
    for idx, out_channels in enumerate(channels):
        layers.append(
            Conv2D(in_channels, int(out_channels), 3, padding=1, seed=rngs[idx])
        )
        if batch_norm:
            layers.append(BatchNorm(int(out_channels)))
        layers.append(ReLU())
        if h >= 2 and w >= 2:
            layers.append(MaxPool2D(2))
            h //= 2
            w //= 2
        in_channels = int(out_channels)
    layers.append(Flatten())
    flat_dim = in_channels * h * w
    layers.append(Dense(flat_dim, int(dense_width), seed=rngs[-2]))
    layers.append(ReLU())
    layers.append(Dense(int(dense_width), int(num_classes), seed=rngs[-1]))
    return Sequential(layers)
