"""Top-k sparsification of model updates.

Implements magnitude-based top-k sparsification [5]: only the ``k``
largest-magnitude entries of the update are transmitted (as
index/value pairs). With *error feedback*, the untransmitted residual
is remembered and added to the next round's update, which is what
keeps aggressive sparsification from stalling convergence.

Payload accounting charges ``32 + index_bits`` per kept entry, where
``index_bits = ceil(log2(dimension))``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigurationError

__all__ = ["SparseVector", "TopKSparsifier"]


@dataclass(frozen=True)
class SparseVector:
    """A sparsified update: kept indices, their values, and dimension.

    Attributes:
        indices: positions of transmitted entries (sorted ascending).
        values: transmitted values, aligned with ``indices``.
        dimension: length of the dense vector.
    """

    indices: np.ndarray
    values: np.ndarray
    dimension: int

    @property
    def density(self) -> float:
        """Fraction of entries transmitted."""
        if self.dimension == 0:
            return 0.0
        return self.indices.size / self.dimension

    @property
    def payload_bits(self) -> float:
        """Transmitted size: value bits + index bits per kept entry."""
        return _payload_bits(self.indices.size, self.dimension)


def _payload_bits(kept: int, dimension: int) -> float:
    """``kept`` value/index pairs of a ``dimension``-long vector, in bits."""
    if dimension == 0:
        return 0.0
    index_bits = max(1, math.ceil(math.log2(dimension)))
    return float(kept * (32 + index_bits))


class TopKSparsifier:
    """Keep the top-``fraction`` magnitude entries of each update.

    Args:
        fraction: fraction of entries to keep, in ``(0, 1]``.
        error_feedback: accumulate the dropped residual and add it to
            the next update (memory is per-sparsifier instance, i.e.
            per client in an FL deployment).
    """

    def __init__(self, fraction: float = 0.1, error_feedback: bool = True):
        if not 0.0 < fraction <= 1.0:
            raise ConfigurationError(
                f"fraction must be in (0, 1], got {fraction}"
            )
        self.fraction = float(fraction)
        self.error_feedback = bool(error_feedback)
        self._residual: np.ndarray | None = None

    def reset(self) -> None:
        """Clear the error-feedback residual."""
        self._residual = None

    def keep_count(self, dimension: int) -> int:
        """Entries kept for a ``dimension``-long vector (at least 1)."""
        return max(1, int(round(self.fraction * dimension)))

    def payload_bits(self, dimension: int) -> float:
        """Bits of the payload :meth:`compress` returns for a
        ``dimension``-long vector, whatever its values."""
        return _payload_bits(self.keep_count(dimension), dimension)

    def compress(self, vector: np.ndarray) -> SparseVector:
        """Sparsify ``vector`` (plus any residual) to its top-k entries."""
        vector = np.asarray(vector, dtype=np.float64).ravel()
        if self.error_feedback:
            if self._residual is not None and self._residual.size == vector.size:
                vector = vector + self._residual
        if vector.size == 0:
            return SparseVector(
                indices=np.zeros(0, dtype=np.int64),
                values=np.zeros(0, dtype=np.float64),
                dimension=0,
            )
        k = self.keep_count(vector.size)
        if k >= vector.size:
            indices = np.arange(vector.size, dtype=np.int64)
        else:
            indices = np.argpartition(np.abs(vector), -k)[-k:]
            indices = np.sort(indices).astype(np.int64)
        values = vector[indices].copy()
        if self.error_feedback:
            residual = vector.copy()
            residual[indices] = 0.0
            self._residual = residual
        return SparseVector(indices=indices, values=values, dimension=vector.size)

    @staticmethod
    def decompress(payload: SparseVector) -> np.ndarray:
        """Densify a sparse payload (zeros everywhere not transmitted)."""
        dense = np.zeros(payload.dimension, dtype=np.float64)
        dense[payload.indices] = payload.values
        return dense

    def __repr__(self) -> str:
        return (
            f"TopKSparsifier(fraction={self.fraction}, "
            f"error_feedback={self.error_feedback})"
        )
