"""Array-backed dataset container."""

from __future__ import annotations

from typing import Sequence, Tuple

import numpy as np

from repro.errors import DataError
from repro.rng import SeedLike, ensure_generator

__all__ = ["ArrayDataset", "train_test_split"]


class ArrayDataset:
    """An in-memory supervised dataset of ``(inputs, labels)`` arrays.

    This plays the role of a user's local dataset ``D_q`` in the paper:
    ``len(dataset)`` is ``|D_q|``, the quantity driving both the FedAvg
    weights (Eq. 18) and the compute cost model (Eq. 4).

    Args:
        inputs: sample array; first axis indexes samples.
        labels: integer class labels, same length as ``inputs``.
    """

    def __init__(self, inputs: np.ndarray, labels: np.ndarray) -> None:
        inputs = np.asarray(inputs)
        labels = np.asarray(labels)
        if inputs.shape[0] != labels.shape[0]:
            raise DataError(
                f"inputs ({inputs.shape[0]}) and labels ({labels.shape[0]}) "
                "must have the same length"
            )
        if labels.ndim != 1:
            raise DataError(f"labels must be 1-D, got shape {labels.shape}")
        if labels.size and not np.issubdtype(labels.dtype, np.integer):
            if not np.allclose(labels, np.round(labels)):
                raise DataError("labels must be integers")
            labels = labels.astype(np.int64)
        self.inputs = inputs
        self.labels = labels.astype(np.int64)

    def __len__(self) -> int:
        return int(self.inputs.shape[0])

    def __getitem__(self, index) -> Tuple[np.ndarray, np.ndarray]:
        return self.inputs[index], self.labels[index]

    @property
    def num_classes(self) -> int:
        """Number of distinct label values present (0 when empty)."""
        if self.labels.size == 0:
            return 0
        return int(self.labels.max()) + 1

    def class_counts(self, num_classes: int | None = None) -> np.ndarray:
        """Return per-class sample counts.

        Args:
            num_classes: length of the returned histogram; defaults to
                ``max label + 1``.
        """
        if num_classes is None:
            num_classes = self.num_classes
        return np.bincount(self.labels, minlength=num_classes)[:num_classes]

    def subset(self, indices: Sequence[int]) -> ArrayDataset:
        """Return a new dataset holding the rows at ``indices``."""
        indices = np.asarray(indices, dtype=np.int64)
        if indices.size and (
            indices.min() < 0 or indices.max() >= len(self)
        ):
            raise DataError(
                f"indices out of range for dataset of size {len(self)}"
            )
        return ArrayDataset(self.inputs[indices], self.labels[indices])

    def __repr__(self) -> str:
        return (
            f"ArrayDataset(n={len(self)}, input_shape="
            f"{tuple(self.inputs.shape[1:])}, classes={self.num_classes})"
        )


def train_test_split(
    dataset: ArrayDataset, test_fraction: float = 0.2, seed: SeedLike = None
) -> Tuple[ArrayDataset, ArrayDataset]:
    """Split ``dataset`` into shuffled train and test subsets.

    Args:
        dataset: source dataset.
        test_fraction: fraction of rows assigned to the test split,
            strictly inside ``(0, 1)``.
        seed: shuffle seed.

    Returns:
        ``(train, test)`` datasets.
    """
    if not 0.0 < test_fraction < 1.0:
        raise DataError(f"test_fraction must be in (0, 1), got {test_fraction}")
    rng = ensure_generator(seed)
    order = rng.permutation(len(dataset))
    n_test = int(round(len(dataset) * test_fraction))
    n_test = min(max(n_test, 1), len(dataset) - 1)
    test_idx = order[:n_test]
    train_idx = order[n_test:]
    return dataset.subset(train_idx), dataset.subset(test_idx)
