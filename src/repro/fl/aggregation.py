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

__all__ = ["FedAvgAccumulator", "fedavg_aggregate"]


class FedAvgAccumulator:
    """Eq. 18 summed one vector at a time, in the order they are added.

    Each entry takes two roundings per vector — ``(w_k / total) * v_k``,
    then ``+=`` — so rows folded in as they are trained give the bits of
    :func:`fedavg_aggregate` over the kept list (a ``weights @ matrix``
    GEMV would reorder the sum). ``weights`` holds one weight per vector
    to come, ``size`` is the vector length ``P``.
    """

    def __init__(self, weights: Sequence[float], size: int) -> None:
        weights_arr = np.asarray(weights, dtype=np.float64)
        bad = np.flatnonzero(~np.isfinite(weights_arr))
        if bad.size:
            raise TrainingError(
                f"weight {bad[0]} is {float(weights_arr[bad[0]])!r}; Eq. 18 "
                "weights must be finite"
            )
        if np.any(weights_arr < 0):
            raise TrainingError(f"weights must be non-negative, got {weights}")
        total = weights_arr.sum()
        if total <= 0:
            raise TrainingError("at least one aggregation weight must be positive")
        self._ratios = weights_arr / total
        self._added = 0
        self._sum = np.zeros(size)
        self._scaled = np.empty(size)  # reused for ``(w_k / total) * v_k``

    def add(self, vector) -> None:
        """Fold in the next vector; it takes the next weight."""
        vector = _as_flat(vector)
        if vector.shape != self._sum.shape:
            raise ShapeError(
                f"parameter vector of length {vector.size} does not match "
                f"the aggregate's length {self._sum.size}"
            )
        np.multiply(vector, self._ratios[self._added], out=self._scaled)
        self._sum += self._scaled
        self._added += 1

    def result(self) -> np.ndarray:
        """The aggregated flat vector (float64)."""
        return self._sum


def fedavg_aggregate(
    parameter_vectors: Sequence[np.ndarray],
    weights: Sequence[float],
) -> np.ndarray:
    """Weighted average of flat parameter vectors.

    Args:
        parameter_vectors: one flat vector per participating user.
        weights: finite, non-negative aggregation weights (the paper
            uses ``|D_q|``); at least one must be positive.

    Returns:
        The aggregated flat vector (float64).

    Raises:
        TrainingError: for empty input or weights that are not as above.
        ShapeError: for mismatched vector lengths.
    """
    if len(parameter_vectors) == 0:
        raise TrainingError("cannot aggregate zero model updates")
    if len(parameter_vectors) != len(weights):
        raise TrainingError(
            f"{len(parameter_vectors)} updates but {len(weights)} weights"
        )
    accumulator = FedAvgAccumulator(weights, _as_flat(parameter_vectors[0]).size)
    for vector in parameter_vectors:
        accumulator.add(vector)
    return accumulator.result()


def _as_flat(vector) -> np.ndarray:
    """``vector`` as 1-D float64, untouched when it already is."""
    if (
        isinstance(vector, np.ndarray)
        and vector.ndim == 1
        and vector.dtype == np.float64
    ):
        return vector
    return np.asarray(vector, dtype=np.float64).ravel()
