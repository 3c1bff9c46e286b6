"""A from-scratch numpy neural-network library.

This package is the training substrate for the HELCFL reproduction: the
paper trains SqueezeNet on CIFAR-10 with a conventional deep-learning
stack, and this package provides what its local update and evaluation
need offline — layers with exact analytic gradients, the softmax
cross-entropy loss, the in-place gradient step of Eq. (3), reference
architectures (an MLP, a small CNN, and a Mini-SqueezeNet built from
Fire modules), plus flat-parameter access used by the
federated-averaging aggregator.

Quick example::

    from repro import nn

    model = nn.Sequential([
        nn.Dense(32, 64), nn.ReLU(),
        nn.Dense(64, 10),
    ], seed=0)
    loss = nn.SoftmaxCrossEntropy()
    logits = model.forward(x, training=True)
    value, grad = loss.loss_and_grad(logits, labels)
    model.backward(grad)
    model.sgd_step(0.1)
"""

from repro.nn.activations import ReLU
from repro.nn.conv import Conv2D
from repro.nn.dense import Dense
from repro.nn.initializers import he_normal, zeros_init
from repro.nn.layer import Layer
from repro.nn.losses import SoftmaxCrossEntropy
from repro.nn.metrics import accuracy
from repro.nn.model import Sequential
from repro.nn.normalization import BatchNorm
from repro.nn.pooling import GlobalAvgPool2D, MaxPool2D
from repro.nn.reshape import Flatten
from repro.nn.architectures import build_cnn, build_mlp, build_mini_squeezenet

__all__ = [
    "Layer",
    "Dense",
    "Conv2D",
    "MaxPool2D",
    "GlobalAvgPool2D",
    "BatchNorm",
    "Flatten",
    "ReLU",
    "Sequential",
    "SoftmaxCrossEntropy",
    "accuracy",
    "he_normal",
    "zeros_init",
    "build_mlp",
    "build_cnn",
    "build_mini_squeezenet",
]
