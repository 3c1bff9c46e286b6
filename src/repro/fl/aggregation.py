"""FedAvg aggregation (the paper's Eq. 18).

The FLCC integrates the uploaded models with data-size weights::

    M_G^{j+1} = sum_q |D_q| * M_q^{j+1} / sum_q |D_q|

operating on flat parameter vectors (see
:meth:`repro.nn.model.Sequential.get_flat_params`).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.errors import ShapeError, TrainingError

__all__ = ["fedavg_aggregate"]


def fedavg_aggregate(
    parameter_vectors: Sequence[np.ndarray],
    weights: Sequence[float],
) -> np.ndarray:
    """Weighted average of flat parameter vectors.

    Args:
        parameter_vectors: one flat vector per participating user.
        weights: non-negative aggregation weights (the paper uses local
            dataset sizes ``|D_q|``); at least one must be positive.

    Returns:
        The aggregated flat vector (float64).

    Raises:
        TrainingError: for empty input or all-zero weights.
        ShapeError: for mismatched vector lengths.
    """
    if len(parameter_vectors) == 0:
        raise TrainingError("cannot aggregate zero model updates")
    if len(parameter_vectors) != len(weights):
        raise TrainingError(
            f"{len(parameter_vectors)} updates but {len(weights)} weights"
        )
    weights_arr = np.asarray(weights, dtype=np.float64)
    if np.any(weights_arr < 0):
        raise TrainingError(f"weights must be non-negative, got {weights}")
    total = weights_arr.sum()
    if total <= 0:
        raise TrainingError("at least one aggregation weight must be positive")

    first = _as_flat(parameter_vectors[0])
    accumulator = np.zeros_like(first)
    # One reused buffer for ``(weight / total) * vector``: the same two
    # roundings per entry, in the same client order, as a temporary per
    # client. (A ``weights @ matrix`` GEMV would reorder the sum.)
    scaled = np.empty_like(first)
    for vector, weight in zip(parameter_vectors, weights_arr):
        vector = _as_flat(vector)
        if vector.shape != first.shape:
            raise ShapeError(
                f"parameter vector of length {vector.size} does not match "
                f"first vector of length {first.size}"
            )
        np.multiply(vector, weight / total, out=scaled)
        accumulator += scaled
    return accumulator


def _as_flat(vector) -> np.ndarray:
    """``vector`` as 1-D float64, untouched when it already is."""
    if (
        isinstance(vector, np.ndarray)
        and vector.ndim == 1
        and vector.dtype == np.float64
    ):
        return vector
    return np.asarray(vector, dtype=np.float64).ravel()
