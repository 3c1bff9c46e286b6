"""The one-hot softmax cross-entropy and the ``np.where`` ReLU.

This is how ``src/`` computed Eq. 3's loss and the stacked kernel's ReLU
before both went to cheaper forms:

- ``SoftmaxCrossEntropy`` built a one-hot ``(n, c)`` target, took the
  log of every clipped probability, summed ``target * log_probs`` over
  the classes and subtracted the whole target for the gradient;
- the stacked kernel's ``_softmax_cross_entropy`` did the same with the
  class axis moved to 2 and a ``(g, n, c)`` target;
- its ReLU took the mask ``x > 0`` of the pre-activation and
  ``np.where(mask, x, 0.0)``, and its backward ``grad * mask``.

``src/`` must equal these to the last bit, NaN payloads and the sign of
zero included; ``tests/nn/test_loss_oracle.py`` asserts exactly that.
"""

from typing import Tuple

import numpy as np


class SoftmaxCrossEntropy:
    """The per-row loss with its one-hot target (labels cast to int64)."""

    @staticmethod
    def _softmax(logits: np.ndarray) -> np.ndarray:
        shifted = logits - logits.max(axis=1, keepdims=True)
        exp = np.exp(shifted)
        return exp / exp.sum(axis=1, keepdims=True)

    @staticmethod
    def _target_distribution(labels: np.ndarray, classes: int) -> np.ndarray:
        batch = labels.shape[0]
        onehot = np.zeros((batch, classes), dtype=np.float64)
        onehot[np.arange(batch), labels] = 1.0
        return onehot

    def loss_and_grad(
        self, logits: np.ndarray, labels: np.ndarray
    ) -> Tuple[float, np.ndarray]:
        labels = np.asarray(labels).astype(np.int64)
        classes = logits.shape[1]
        probs = self._softmax(logits)
        target = self._target_distribution(labels, classes)
        log_probs = np.log(np.clip(probs, 1e-300, None))
        value = float(-(target * log_probs).sum(axis=1).mean())
        return value, (probs - target) / logits.shape[0]


def stacked_softmax_cross_entropy(
    logits: np.ndarray, labels: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Per-client mean loss ``(g,)`` and logit gradient ``(g, n, c)``."""
    clients, samples, classes = logits.shape
    target = np.zeros((clients, samples, classes), dtype=np.float64)
    target[
        np.arange(clients)[:, None], np.arange(samples)[None, :], labels
    ] = 1.0
    shifted = logits - logits.max(axis=2, keepdims=True)
    exp = np.exp(shifted, out=shifted)
    probs = exp / exp.sum(axis=2, keepdims=True)
    log_probs = np.log(np.clip(probs, 1e-300, None))
    log_probs *= target
    losses = -log_probs.sum(axis=2).mean(axis=1)
    probs -= target
    probs /= logits.shape[1]
    return losses, probs


def where_relu(activation: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """The stacked kernel's forward ReLU: ``(output, mask)``."""
    mask = activation > 0
    return np.where(mask, activation, 0.0), mask


def where_relu_backward(grad: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """The stacked kernel's backward ReLU."""
    return grad * mask
