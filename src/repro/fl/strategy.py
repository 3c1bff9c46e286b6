"""Strategy interfaces: user selection and frequency assignment.

Every scheme the paper evaluates decomposes into two pluggable pieces:

* a :class:`SelectionStrategy` choosing the user set ``Gamma_j`` for
  round ``j`` (Algorithm 1, line 4 — first half);
* a :class:`FrequencyPolicy` assigning each selected device a CPU
  operating frequency (line 4 — second half).

HELCFL pairs greedy-decay selection with the DVFS policy; Classic FL
pairs random selection with max frequency; FEDL pairs random selection
with its closed-form frequency; FedCS pairs deadline-greedy selection
with max frequency.

Both work on the resource columns the FLCC polls each round, a
:class:`~repro.devices.DevicePopulation`:
:meth:`SelectionStrategy.select_population` ranks the fleet's array
positions, and :meth:`FrequencyPolicy.assign` receives the selected
set's population slice through the kw-only ``population=`` argument.
Array results are always indexed by population position; a strategy
that needs a per-device object (a live battery, a dataset) looks it up
by ``population.device_ids``.
"""

from __future__ import annotations

import abc
import math
from typing import Dict, Sequence

import numpy as np

from repro.devices.device import UserDevice
from repro.devices.population import DevicePopulation
from repro.errors import ConfigurationError, SelectionError
from repro.sequential import rank_by

__all__ = [
    "SelectionStrategy",
    "FrequencyPolicy",
    "MaxFrequencyPolicy",
    "selection_count",
    "check_link",
    "over_selection_extras_population",
]


def selection_count(num_users: int, fraction: float) -> int:
    """The paper's ``N = max(Q * C, 1)`` (Algorithm 2, line 11).

    Args:
        num_users: population size ``Q``.
        fraction: selection fraction ``C`` in ``(0, 1]``.

    Returns:
        Number of users to select, at least 1 and at most ``Q``.
    """
    if num_users <= 0:
        raise SelectionError(f"num_users must be positive, got {num_users}")
    if not 0.0 < fraction <= 1.0:
        raise SelectionError(f"fraction must be in (0, 1], got {fraction}")
    return min(num_users, max(int(num_users * fraction), 1))


def check_link(payload_bits: float, bandwidth_hz: float) -> None:
    """Refuse a payload ``C_model`` or bandwidth ``Z`` that is not a
    positive finite number (NaN included), naming the field.

    Raises:
        ConfigurationError: for the first bad value.
    """
    for name, value in (("payload_bits", payload_bits), ("bandwidth_hz", bandwidth_hz)):
        if not (math.isfinite(value) and value > 0):
            raise ConfigurationError(f"{name} must be positive and finite, got {value}")


def over_selection_extras_population(
    population: DevicePopulation,
    selected_positions: np.ndarray,
    margin: int,
    payload_bits: float,
    bandwidth_hz: float,
) -> np.ndarray:
    """FedCS-style over-selection padding for dropout resilience.

    When the trainer expects dropouts it selects ``N + margin`` devices
    and aggregates the first ``N`` survivors. The padding devices are
    the *fastest* not-yet-selected ones by the Eq. (9) round delay at
    ``f_max`` (ties by id) — the FedCS heuristic: devices most likely
    to finish inside the round.

    Args:
        population: the full fleet population.
        selected_positions: array positions already selected.
        margin: extra devices to add (capped by the remaining pool).
        payload_bits: model payload ``C_model`` in bits.
        bandwidth_hz: uplink resource blocks ``Z`` in Hz.

    Returns:
        Up to ``margin`` padding positions, ordered by ascending
        (Eq. 9 delay at ``f_max``, device id); deterministic for a
        fixed population.
    """
    if margin < 0:
        raise SelectionError(f"margin must be non-negative, got {margin}")
    mask = np.ones(len(population), dtype=bool)
    mask[np.asarray(selected_positions, dtype=np.int64)] = False
    pool = np.flatnonzero(mask)
    if pool.size == 0 or margin == 0:
        return pool[:0]
    delays = population.total_delay(payload_bits, bandwidth_hz)
    order = rank_by(delays[pool], population.device_ids[pool])
    return pool[order[:margin]]


class SelectionStrategy(abc.ABC):
    """Base class for per-round user selection.

    Subclasses implement :meth:`select_population`; stateful strategies
    (HELCFL's appearance counters) should also override :meth:`reset`
    and the checkpoint pair :meth:`state_dict`/:meth:`load_state_dict`.
    """

    @abc.abstractmethod
    def select_population(
        self, round_index: int, population: DevicePopulation
    ) -> np.ndarray:
        """Return the user set ``Gamma_j`` as ranked population positions.

        Args:
            round_index: 1-based FL round index ``j``.
            population: the users to choose from ``V`` — the fleet, or
                a sub-population a wrapping strategy hands on.

        Returns:
            Positions into ``population`` in selection order.
        """

    def reset(self) -> None:
        """Clear any cross-round state before a fresh training run."""

    def state_dict(self) -> Dict:
        """JSON-serializable snapshot of the cross-round mutable state.

        Checkpoint/resume support: the trainer captures this at every
        checkpoint and feeds it back through :meth:`load_state_dict`
        when resuming, so a resumed run selects exactly the users an
        uninterrupted one would have. Stateless strategies (the base)
        return ``{}``; every strategy with cross-round state (counters,
        RNG streams, loss tables) must override *both* methods or
        resumed runs silently diverge.
        """
        return {}

    def load_state_dict(self, state: Dict) -> None:
        """Restore a :meth:`state_dict` snapshot (after :meth:`reset`).

        The base accepts only the empty snapshot; a non-empty one
        means the checkpoint was written by a stateful strategy this
        class cannot restore.
        """
        if state:
            raise SelectionError(
                f"{type(self).__name__} cannot restore selection state "
                f"with keys {sorted(state)}"
            )

    def observe_losses(self, losses: Dict[int, float]) -> None:
        """Feedback hook: the trainer reports each round's client losses.

        Called once per round with a mapping from device id to the
        loss observed in that device's local update. The base
        implementation ignores the feedback; statistical-utility
        strategies (e.g. the Oort extension) override it.
        """


class FrequencyPolicy:
    """Base class for assigning CPU frequencies to selected devices."""

    def assign(
        self,
        selected: Sequence[UserDevice],
        payload_bits: float,
        bandwidth_hz: float,
        *,
        round_index: int = 0,
        population: DevicePopulation,
    ) -> Dict[int, float]:
        """Return a mapping from device id to operating frequency.

        Args:
            selected: the round's selected user set.
            payload_bits: model payload ``C_model`` in bits.
            bandwidth_hz: the uplink resource blocks ``Z`` in Hz.
            round_index: 1-based FL round index ``j`` (0 when called
                outside a training loop). Stateless policies ignore it;
                adaptive DVFS policies can schedule on it without
                another signature break.
            population: the selected set as a
                :class:`~repro.devices.DevicePopulation` slice, aligned
                with ``selected``; the shipped policies read only it.
        """
        raise NotImplementedError


class MaxFrequencyPolicy(FrequencyPolicy):
    """Run every selected device at its maximum CPU frequency.

    This is the traditional TDMA FL behaviour whose energy waste
    Section VI-A illustrates (Fig. 1); it is the "without DVFS"
    baseline of Fig. 3.
    """

    def assign(
        self,
        selected: Sequence[UserDevice],
        payload_bits: float,
        bandwidth_hz: float,
        *,
        round_index: int = 0,
        population: DevicePopulation,
    ) -> Dict[int, float]:
        del selected, payload_bits, bandwidth_hz, round_index
        return dict(
            zip(population.device_ids.tolist(), population.f_max.tolist())
        )
