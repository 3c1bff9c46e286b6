"""Battery-aware selection gating (extension).

The paper motivates its energy optimization with battery-powered
devices: "energy of user devices is quickly exhausted or even device
shutdown occurs during FL training" (Section I). A natural
system-level complement to HELCFL is to stop *selecting* users whose
battery is nearly empty — they would either shut down mid-round
(losing their update) or be pushed into shutdown by participating.

:class:`BatteryAwareSelection` is a decorator: it filters the
population by battery level (and, optionally, by whether the device
can afford its own worst-case round cost) before delegating to any
inner strategy — HELCFL's greedy-decay, random, FedCS, anything. The
inner strategy ranks the eligible sub-population; the gate maps its
positions back to the population it was given. Batteries are live
per-device objects, not population columns, so the gate is built with
the fleet it reads them from.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

import numpy as np

from repro.devices.device import UserDevice
from repro.devices.population import DevicePopulation
from repro.errors import ConfigurationError, SelectionError
from repro.fl.strategy import SelectionStrategy

__all__ = ["BatteryAwareSelection"]


class BatteryAwareSelection(SelectionStrategy):
    """Filter out energy-starved devices, then delegate selection.

    Devices without a battery are always eligible. If filtering leaves
    nobody, the strategy falls back to the full population (training
    must proceed; the trainer's battery enforcement will handle the
    consequences) unless ``strict`` is set.

    Args:
        inner: the wrapped selection strategy.
        devices: the fleet the populations it is given describe; each
            device's :class:`~repro.devices.Battery` is read live when
            a round is selected.
        min_level: minimum battery level (fraction of capacity) to be
            eligible, in ``[0, 1]``.
        require_round_budget: additionally require that the device can
            afford one worst-case round (max-frequency compute plus
            one upload) from its remaining charge.
        payload_bits: payload used for the round-budget estimate
            (required when ``require_round_budget``).
        bandwidth_hz: bandwidth for the round-budget estimate.
        strict: raise :class:`SelectionError` instead of falling back
            when every device is filtered out.
    """

    def __init__(
        self,
        inner: SelectionStrategy,
        devices: Sequence[UserDevice],
        min_level: float = 0.1,
        require_round_budget: bool = False,
        payload_bits: Optional[float] = None,
        bandwidth_hz: Optional[float] = None,
        strict: bool = False,
    ) -> None:
        if not isinstance(inner, SelectionStrategy):
            raise ConfigurationError(
                f"inner must be a SelectionStrategy, got {type(inner)!r}"
            )
        if not 0.0 <= min_level <= 1.0:
            raise ConfigurationError(
                f"min_level must be in [0, 1], got {min_level}"
            )
        if require_round_budget and (
            payload_bits is None or bandwidth_hz is None
        ):
            raise ConfigurationError(
                "require_round_budget needs payload_bits and bandwidth_hz"
            )
        self.inner = inner
        self._device_by_id = {device.device_id: device for device in devices}
        self.min_level = float(min_level)
        self.require_round_budget = bool(require_round_budget)
        self.payload_bits = payload_bits
        self.bandwidth_hz = bandwidth_hz
        self.strict = bool(strict)

    def reset(self) -> None:
        """Reset the wrapped strategy."""
        self.inner.reset()

    def state_dict(self) -> Dict:
        """The wrapped strategy's snapshot: the gate keeps no state."""
        return self.inner.state_dict()

    def load_state_dict(self, state: Dict) -> None:
        """Restore the wrapped strategy's snapshot."""
        self.inner.load_state_dict(state)

    def observe_losses(self, losses: Dict[int, float]) -> None:
        """Pass the round's client losses on to the wrapped strategy."""
        self.inner.observe_losses(losses)

    def _eligible(self, device: UserDevice) -> bool:
        battery = device.battery
        if battery is None:
            return True
        if battery.level < self.min_level:
            return False
        if self.require_round_budget:
            worst_case = device.compute_energy() + device.upload_energy(
                self.payload_bits, self.bandwidth_hz
            )
            if not battery.can_afford(worst_case):
                return False
        return True

    def select_population(
        self, round_index: int, population: DevicePopulation
    ) -> np.ndarray:
        """The inner strategy's ranking of the eligible positions."""
        device_by_id = self._device_by_id
        eligible = np.flatnonzero(
            np.fromiter(
                (
                    self._eligible(device_by_id[device_id])
                    for device_id in population.device_ids.tolist()
                ),
                dtype=bool,
                count=len(population),
            )
        )
        if eligible.size == 0:
            if self.strict:
                raise SelectionError(
                    "every device is below the battery eligibility threshold"
                )
            return self.inner.select_population(round_index, population)
        return eligible[
            self.inner.select_population(round_index, population.take(eligible))
        ]

    def __repr__(self) -> str:
        return (
            f"BatteryAwareSelection(min_level={self.min_level}, "
            f"inner={self.inner!r})"
        )
