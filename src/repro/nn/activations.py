"""The ReLU activation layer.

It is a parameter-free :class:`~repro.nn.layer.Layer`
subclass so it composes with :class:`~repro.nn.model.Sequential`
like any other layer.
"""

from __future__ import annotations

import numpy as np

from repro.nn.layer import Layer

__all__ = ["ReLU", "rectify"]


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
