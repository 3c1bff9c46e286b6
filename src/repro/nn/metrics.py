"""Classification metrics."""

from __future__ import annotations

import numpy as np

from repro.errors import ShapeError

__all__ = ["accuracy"]


def accuracy(logits_or_preds: np.ndarray, labels: np.ndarray) -> float:
    """Fraction of correct predictions.

    Args:
        logits_or_preds: either class scores of shape
            ``(batch, classes)`` (argmaxed internally) or already-argmaxed
            integer predictions of shape ``(batch,)``.
        labels: integer ground-truth labels of shape ``(batch,)``.

    Returns:
        Accuracy in ``[0, 1]``; 0.0 for an empty batch.
    """
    labels = np.asarray(labels)
    preds = np.asarray(logits_or_preds)
    if preds.ndim == 2:
        preds = preds.argmax(axis=1)
    if preds.shape != labels.shape:
        raise ShapeError(
            f"predictions {preds.shape} and labels {labels.shape} differ"
        )
    if labels.size == 0:
        return 0.0
    return float(np.mean(preds == labels))
