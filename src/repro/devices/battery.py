"""Battery model (extension).

The paper motivates energy optimization with battery-powered devices
but does not simulate charge levels. This extension tracks per-device
energy budgets so failure-injection experiments can model device
shutdown mid-training ("energy is quickly exhausted or even device
shutdown occurs", Section I).
"""

from __future__ import annotations

import math

from repro.errors import DeviceError

__all__ = ["Battery"]


class Battery:
    """A finite energy reservoir drained by compute and communication.

    Args:
        capacity_joules: full-charge energy.
        charge_joules: initial charge; defaults to full.
    """

    def __init__(self, capacity_joules: float, charge_joules: float | None = None):
        if not 0 < capacity_joules < math.inf:
            raise DeviceError(
                f"capacity_joules must be positive and finite, got {capacity_joules}"
            )
        self.capacity_joules = float(capacity_joules)
        if charge_joules is None:
            charge_joules = capacity_joules
        if not 0.0 <= charge_joules <= capacity_joules:
            raise DeviceError(
                f"charge_joules must be in [0, {capacity_joules}], got "
                f"{charge_joules}"
            )
        self.charge_joules = float(charge_joules)

    @property
    def level(self) -> float:
        """Remaining charge as a fraction of capacity."""
        return self.charge_joules / self.capacity_joules

    @property
    def is_depleted(self) -> bool:
        """True when the battery has no usable charge left."""
        return self.charge_joules <= 0.0

    def can_afford(self, energy_joules: float) -> bool:
        """Whether ``energy_joules`` can be drawn without depletion."""
        return self.charge_joules >= energy_joules

    def drain(self, energy_joules: float) -> bool:
        """Draw ``energy_joules``; returns False (and empties) if short.

        A failed draw models a device shutting down mid-round: the
        charge drops to zero and the caller should treat the round's
        contribution as lost.
        """
        if energy_joules < 0:
            raise DeviceError(f"energy must be non-negative, got {energy_joules}")
        if self.charge_joules >= energy_joules:
            self.charge_joules -= energy_joules
            return True
        self.charge_joules = 0.0
        return False

    def kill(self) -> None:
        """Empty the battery instantly (fault-injected sudden death).

        Unlike a failed :meth:`drain`, no energy demand is involved:
        the device simply shuts down. With ``enforce_battery`` the
        trainer then drops the device's future rounds until something
        calls :meth:`recharge`.
        """
        self.charge_joules = 0.0

    def recharge(self, energy_joules: float | None = None) -> None:
        """Add charge (full recharge when ``energy_joules`` is None)."""
        if energy_joules is None:
            self.charge_joules = self.capacity_joules
            return
        if energy_joules < 0:
            raise DeviceError(f"energy must be non-negative, got {energy_joules}")
        self.charge_joules = min(
            self.capacity_joules, self.charge_joules + energy_joules
        )

    def __repr__(self) -> str:
        return (
            f"Battery({self.charge_joules:.3g}/{self.capacity_joules:.3g} J, "
            f"{100 * self.level:.1f}%)"
        )
