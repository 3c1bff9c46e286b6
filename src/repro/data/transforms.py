"""Input transform: flattening image batches for MLP models."""

from __future__ import annotations

import numpy as np

from repro.errors import DataError

__all__ = ["flatten_images"]


def flatten_images(images: np.ndarray) -> np.ndarray:
    """Flatten an ``(n, ...)`` batch to ``(n, prod)``.

    Used to feed image datasets into MLP models.
    """
    images = np.asarray(images)
    if images.ndim < 2:
        raise DataError(f"expected a batched array, got shape {images.shape}")
    return images.reshape(images.shape[0], -1)
