"""Element-wise activation layers.

All activations are parameter-free :class:`~repro.nn.layer.Layer`
subclasses so they compose with :class:`~repro.nn.model.Sequential`
like any other layer.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigurationError
from repro.nn.layer import Layer

__all__ = ["ReLU", "LeakyReLU", "Sigmoid", "Tanh", "Softmax", "rectify"]


def rectify(inputs: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """``max(x, 0)`` with the bits of ``np.where(x > 0, x, 0.0)``.

    ``np.fmax`` is one vectorised pass that keeps the input's memory
    order and returns the zero for a NaN; ``+ 0.0`` turns the ``-0.0``
    it may return for a zero input into the ``+0.0`` that ``where`` gives.
    """
    out = np.fmax(inputs, 0.0, out=out)
    out += 0.0
    return out


class ReLU(Layer):
    """Rectified linear unit: ``max(x, 0)``."""

    def __init__(self) -> None:
        super().__init__()
        self._mask: np.ndarray | None = None

    def forward(self, inputs: np.ndarray, training: bool = False) -> np.ndarray:
        out = rectify(inputs)
        # Inference invalidates the cache so a stale backward raises.
        self._mask = out > 0 if training else None
        return out

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._mask is None:
            raise RuntimeError("backward called before forward(training=True)")
        return grad_output * self._mask


class LeakyReLU(Layer):
    """Leaky ReLU: ``x`` for positive inputs, ``slope * x`` otherwise."""

    def __init__(self, slope: float = 0.01) -> None:
        super().__init__()
        if slope < 0:
            raise ConfigurationError(f"slope must be non-negative, got {slope}")
        self.slope = float(slope)
        self._mask: np.ndarray | None = None

    def forward(self, inputs: np.ndarray, training: bool = False) -> np.ndarray:
        mask = inputs > 0
        # Inference invalidates the cache so a stale backward raises.
        self._mask = mask if training else None
        return np.where(mask, inputs, self.slope * inputs)

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._mask is None:
            raise RuntimeError("backward called before forward(training=True)")
        return grad_output * np.where(self._mask, 1.0, self.slope)


class Sigmoid(Layer):
    """Logistic sigmoid: ``1 / (1 + exp(-x))``, numerically stabilized."""

    def __init__(self) -> None:
        super().__init__()
        self._out: np.ndarray | None = None

    def forward(self, inputs: np.ndarray, training: bool = False) -> np.ndarray:
        out = np.empty_like(inputs, dtype=np.float64)
        pos = inputs >= 0
        out[pos] = 1.0 / (1.0 + np.exp(-inputs[pos]))
        exp_x = np.exp(inputs[~pos])
        out[~pos] = exp_x / (1.0 + exp_x)
        # Inference invalidates the cache so a stale backward raises.
        self._out = out if training else None
        return out

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._out is None:
            raise RuntimeError("backward called before forward(training=True)")
        return grad_output * self._out * (1.0 - self._out)


class Tanh(Layer):
    """Hyperbolic tangent activation."""

    def __init__(self) -> None:
        super().__init__()
        self._out: np.ndarray | None = None

    def forward(self, inputs: np.ndarray, training: bool = False) -> np.ndarray:
        out = np.tanh(inputs)
        # Inference invalidates the cache so a stale backward raises.
        self._out = out if training else None
        return out

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._out is None:
            raise RuntimeError("backward called before forward(training=True)")
        return grad_output * (1.0 - self._out**2)


class Softmax(Layer):
    """Softmax over the last axis.

    Prefer :class:`~repro.nn.losses.SoftmaxCrossEntropy` during
    training (it fuses the softmax with the loss for a stable, simple
    gradient); this layer exists for inference pipelines and for models
    whose output must be an explicit probability simplex.
    """

    def __init__(self) -> None:
        super().__init__()
        self._out: np.ndarray | None = None

    def forward(self, inputs: np.ndarray, training: bool = False) -> np.ndarray:
        shifted = inputs - inputs.max(axis=-1, keepdims=True)
        exp = np.exp(shifted)
        out = exp / exp.sum(axis=-1, keepdims=True)
        # Inference invalidates the cache so a stale backward raises.
        self._out = out if training else None
        return out

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._out is None:
            raise RuntimeError("backward called before forward(training=True)")
        dot = np.sum(grad_output * self._out, axis=-1, keepdims=True)
        return self._out * (grad_output - dot)
