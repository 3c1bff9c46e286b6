"""The HELCFL utility function (Eq. 20).

For user ``v_q`` with appearance counter ``alpha_q`` and round delay
``T_q = T_q^cal + T_q^com`` (computed at the device's maximum CPU
frequency), the utility is::

    u_q = eta^alpha_q * 1 / (T_q^cal + T_q^com),     0 < eta < 1.

Fast devices start with high utility (short delays), but every
selection increments ``alpha_q`` and multiplies future utility by
``eta`` — so slow devices' data is eventually incorporated, which
Section V-A shows is what lets FL reach high accuracy (the FedAvg
round is equivalent to a centralized mini-batch step on the *union* of
selected users' data, Eq. 19).

:func:`utility_scores` evaluates Eq. (20) for the whole population as
one array expression over a :class:`~repro.devices.DevicePopulation`
and returns an ndarray aligned with population order;
``population.position_of(device_id)`` maps an id to its score.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Mapping, Union

import numpy as np

from repro.devices.population import DevicePopulation
from repro.errors import ConfigurationError

__all__ = ["utility_scores"]


def _alpha_array(
    population: DevicePopulation,
    appearance_counts: Union[Mapping[int, int], np.ndarray],
) -> np.ndarray:
    if isinstance(appearance_counts, np.ndarray):
        alphas = appearance_counts.astype(np.int64, copy=False)
        if alphas.shape != population.device_ids.shape:
            raise ConfigurationError(
                f"appearance_counts array has shape {alphas.shape}, "
                f"expected {population.device_ids.shape}"
            )
    else:
        alphas = np.fromiter(
            (
                int(appearance_counts.get(device_id, 0))
                for device_id in population.device_ids.tolist()
            ),
            dtype=np.int64,
            count=len(population),
        )
    if np.any(alphas < 0):
        raise ConfigurationError("appearance counts must be non-negative")
    return alphas


_TABLE_CAP = 1 << 16
"""Largest power table: counters at or past it (a hostile checkpoint)
are raised one by one instead of sizing a table to them."""


@lru_cache(maxsize=16)
def _power_table(decay: float, size: int) -> np.ndarray:
    """``decay ** k`` for ``k < size`` with Python's scalar ``**``."""
    return np.array([decay**k for k in range(size)], dtype=np.float64)


def decay_powers(decay: float, alphas: np.ndarray) -> np.ndarray:
    """``eta^alpha`` per device, bitwise-equal to Python's scalar ``**``.

    Counters are small non-negative ints, so the powers are looked up
    in a table of Python-scalar ``eta ** k`` (what the scalar Eq. 20
    computes) — exactness by construction rather than by trusting a
    numpy pow kernel. The table is memoized and sized to the power of two
    above ``max alpha``, at most ``_TABLE_CAP`` entries: a run evaluates
    each power once or twice.
    """
    top = int(alphas.max()) if alphas.size else 0
    size = min(max(64, 1 << top.bit_length()), _TABLE_CAP)
    table = _power_table(decay, size)
    if top < size:
        return table[alphas]
    powers = table[np.minimum(alphas, size - 1)]
    for position in np.flatnonzero(alphas >= size).tolist():
        powers[position] = decay ** int(alphas[position])
    return powers


def utility_scores(
    population: DevicePopulation,
    appearance_counts: Union[Mapping[int, int], np.ndarray],
    payload_bits: float,
    bandwidth_hz: float,
    decay: float,
) -> np.ndarray:
    """Evaluate Eq. (20) for every device (Algorithm 2, lines 8-10).

    Delays are computed at each device's maximum CPU frequency, as
    Algorithm 2 lines 3-4 prescribe. The whole population is evaluated
    as one array expression.

    Args:
        population: the users ``V`` as a
            :class:`~repro.devices.DevicePopulation`.
        appearance_counts: ``alpha_q`` — either a mapping from device
            id (missing ids count as 0) or an int array aligned with
            population order.
        payload_bits: model payload ``C_model``.
        bandwidth_hz: uplink resource blocks ``Z``.
        decay: the decay coefficient ``eta``.

    Returns:
        Utilities as a float64 ndarray aligned with population order
        (position ``q`` scores ``population.device_ids[q]``).
    """
    if not 0.0 < decay < 1.0:
        raise ConfigurationError(f"decay eta must be in (0, 1), got {decay}")
    alphas = _alpha_array(population, appearance_counts)
    total_delay = population.compute_delay() + population.upload_delay(
        payload_bits, bandwidth_hz
    )
    # Tested as "inside" so NaN, which fails every comparison, is
    # rejected along with +inf: either would poison the ranking.
    if not ((total_delay > 0) & (total_delay < np.inf)).all():
        raise ConfigurationError("total delay must be finite and positive")
    return decay_powers(decay, alphas) / total_delay
