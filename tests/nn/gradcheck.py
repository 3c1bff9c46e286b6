"""Numeric gradient checking for the :mod:`repro.nn` tests.

The central-difference gradient is compared against a layer's analytic
backward pass; every layer in :mod:`repro.nn` is validated this way,
most through :class:`MeanSquaredError` against a random target.
"""

from __future__ import annotations

from typing import Callable, Tuple

import numpy as np

from repro.errors import ShapeError

__all__ = ["MeanSquaredError", "numeric_gradient", "relative_error"]


def numeric_gradient(
    fn: Callable[[np.ndarray], float],
    x: np.ndarray,
    eps: float = 1e-5,
) -> np.ndarray:
    """Central-difference gradient of scalar ``fn`` at ``x``.

    ``fn`` must be a pure function of its argument (the array is
    perturbed in place and restored between evaluations).

    Args:
        fn: maps an array of ``x``'s shape to a scalar.
        x: evaluation point; modified temporarily, restored on return.
        eps: finite-difference step.

    Returns:
        Array of ``x``'s shape holding ``d fn / d x``.
    """
    grad = np.zeros_like(x, dtype=np.float64)
    flat_x = x.reshape(-1)
    flat_g = grad.reshape(-1)
    for i in range(flat_x.size):
        original = flat_x[i]
        flat_x[i] = original + eps
        f_plus = fn(x)
        flat_x[i] = original - eps
        f_minus = fn(x)
        flat_x[i] = original
        flat_g[i] = (f_plus - f_minus) / (2.0 * eps)
    return grad


def relative_error(a: np.ndarray, b: np.ndarray, floor: float = 1e-8) -> float:
    """Max elementwise relative error between two arrays.

    ``|a - b| / max(|a| + |b|, floor)``, reduced with ``max``. Values
    near ``1e-7`` or below indicate an analytically correct gradient for
    float64 central differences.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    denom = np.maximum(np.abs(a) + np.abs(b), floor)
    return float(np.max(np.abs(a - b) / denom))


class MeanSquaredError:
    """Mean squared error over all elements: ``mean((y - t)^2)``."""

    def loss(self, outputs: np.ndarray, targets: np.ndarray) -> float:
        """Return the mean squared error."""
        value, _ = self.loss_and_grad(outputs, targets)
        return value

    def loss_and_grad(
        self, outputs: np.ndarray, targets: np.ndarray
    ) -> Tuple[float, np.ndarray]:
        """Return ``(mean loss, d loss / d outputs)``."""
        targets = np.asarray(targets, dtype=np.float64)
        if outputs.shape != targets.shape:
            raise ShapeError(
                f"outputs {outputs.shape} and targets {targets.shape} differ"
            )
        diff = outputs - targets
        value = float(np.mean(diff**2))
        grad = 2.0 * diff / diff.size
        return value, grad
