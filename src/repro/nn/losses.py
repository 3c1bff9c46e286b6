"""Loss functions.

Losses expose ``loss_and_grad(outputs, targets)`` returning the scalar
mean loss and the gradient with respect to ``outputs``, ready to feed
into ``Sequential.backward``.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.errors import ShapeError

__all__ = ["SoftmaxCrossEntropy", "MeanSquaredError"]


class SoftmaxCrossEntropy:
    """Fused softmax + cross-entropy over integer class labels.

    The fusion gives the numerically benign gradient
    ``(softmax(logits) - onehot) / batch``.
    """

    def __init__(self, label_smoothing: float = 0.0) -> None:
        if not 0.0 <= label_smoothing < 1.0:
            raise ShapeError(
                f"label_smoothing must be in [0, 1), got {label_smoothing}"
            )
        self.label_smoothing = float(label_smoothing)

    @staticmethod
    def _softmax(logits: np.ndarray) -> np.ndarray:
        shifted = logits - logits.max(axis=1, keepdims=True)
        exp = np.exp(shifted)
        return exp / exp.sum(axis=1, keepdims=True)

    def _target_distribution(self, labels: np.ndarray, classes: int) -> np.ndarray:
        batch = labels.shape[0]
        onehot = np.zeros((batch, classes), dtype=np.float64)
        onehot[np.arange(batch), labels] = 1.0
        if self.label_smoothing > 0.0:
            smooth = self.label_smoothing
            onehot = onehot * (1.0 - smooth) + smooth / classes
        return onehot

    def loss(self, logits: np.ndarray, labels: np.ndarray) -> float:
        """Return the mean cross-entropy of ``logits`` against ``labels``."""
        return self._evaluate(logits, labels)[0]

    def loss_and_grad(
        self, logits: np.ndarray, labels: np.ndarray
    ) -> Tuple[float, np.ndarray]:
        """Return ``(mean loss, d loss / d logits)``.

        Args:
            logits: unnormalized scores of shape ``(batch, classes)``.
            labels: integer class ids of shape ``(batch,)``.
        """
        value, probs, target = self._evaluate(logits, labels)
        return value, (probs - target) / logits.shape[0]

    def _evaluate(
        self, logits: np.ndarray, labels: np.ndarray
    ) -> Tuple[float, np.ndarray, np.ndarray]:
        """Check the shapes; return ``(mean loss, softmax, target)``."""
        if logits.ndim != 2:
            raise ShapeError(f"logits must be 2-D, got shape {logits.shape}")
        labels = np.asarray(labels)
        if labels.ndim != 1 or labels.shape[0] != logits.shape[0]:
            raise ShapeError(
                f"labels must be 1-D with length {logits.shape[0]}, got "
                f"shape {labels.shape}"
            )
        labels = labels.astype(np.int64)
        classes = logits.shape[1]
        if labels.min(initial=0) < 0 or labels.max(initial=0) >= classes:
            raise ShapeError(
                f"labels must lie in [0, {classes}), got range "
                f"[{labels.min()}, {labels.max()}]"
            )
        probs = self._softmax(logits)
        target = self._target_distribution(labels, classes)
        log_probs = np.log(np.clip(probs, 1e-300, None))
        value = float(-(target * log_probs).sum(axis=1).mean())
        return value, probs, target


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
