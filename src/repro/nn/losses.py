"""Loss functions.

Losses expose ``loss_and_grad(outputs, targets)`` returning the scalar
mean loss and the gradient with respect to ``outputs``, ready to feed
into ``Sequential.backward``.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.errors import ShapeError

__all__ = ["SoftmaxCrossEntropy"]


class SoftmaxCrossEntropy:
    """Fused softmax + cross-entropy over integer class labels.

    The fusion gives the numerically benign gradient
    ``(softmax(logits) - onehot) / batch``. No one-hot target is built:
    the loss reads each row's label probability and the gradient
    subtracts ``1.0`` at the label only. Every gradient and every loss
    keeps the bits of summing ``onehot * log(clip(probs, 1e-300))`` over
    the classes and subtracting the whole one-hot matrix:

    - each row sum added ``±0.0`` to its single nonzero term;
    - subtracting a ``0.0`` target leaves every other probability as it
      was;
    - a NaN or ``+inf`` logit makes every probability of its row NaN, so
      the NaN survives either way;
    - ``np.maximum(x, 1e-300)`` and ``np.clip(x, 1e-300, None)`` agree on
      every input, NaN included.

    The one exception is the sign of a NaN loss when a row holds NaNs of
    both signs: the sum kept the row's first NaN, this form keeps the
    label's. Documents write either as ``NaN``.

    ``tests/oracles/onehot_loss.py`` keeps the one-hot form as the
    oracle.
    """

    @staticmethod
    def _softmax(logits: np.ndarray) -> np.ndarray:
        shifted = logits - logits.max(axis=1, keepdims=True)
        exp = np.exp(shifted)
        return exp / exp.sum(axis=1, keepdims=True)

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
        value, probs, hot = self._evaluate(logits, labels)
        probs[hot] -= 1.0
        probs /= logits.shape[0]
        return value, probs

    def _evaluate(
        self, logits: np.ndarray, labels: np.ndarray
    ) -> Tuple[float, np.ndarray, Tuple[np.ndarray, np.ndarray]]:
        """Check the shapes; return ``(mean loss, softmax, label index)``."""
        if logits.ndim != 2:
            raise ShapeError(f"logits must be 2-D, got shape {logits.shape}")
        labels = np.asarray(labels)
        if labels.ndim != 1 or labels.shape[0] != logits.shape[0]:
            raise ShapeError(
                f"labels must be 1-D with length {logits.shape[0]}, got "
                f"shape {labels.shape}"
            )
        if labels.dtype.kind not in "iu":
            raise ShapeError(
                f"labels must be integer class ids, got dtype {labels.dtype}"
            )
        classes = logits.shape[1]
        if labels.min(initial=0) < 0 or labels.max(initial=0) >= classes:
            raise ShapeError(
                f"labels must lie in [0, {classes}), got range "
                f"[{labels.min()}, {labels.max()}]"
            )
        probs = self._softmax(logits)
        hot = (np.arange(labels.shape[0]), labels)
        value = float(-np.log(np.maximum(probs[hot], 1e-300)).mean())
        return value, probs, hot
