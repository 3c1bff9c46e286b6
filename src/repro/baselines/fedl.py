"""FEDL [12]: closed-form energy/delay-balancing frequency policy.

Tran et al. formulate FL training cost as a weighted sum of energy and
delay and derive closed-form per-device operating points. For the
paper's cost model the per-device subproblem is::

    min_f  E_cal(f) + kappa * T_cal(f)
         = (alpha/2) * pi * |D| * f^2 + kappa * pi * |D| / f

whose stationary point is ``f* = (kappa / alpha)^(1/3)``, clamped into
the device's frequency range. ``kappa`` (joules per second) prices
delay against energy: large ``kappa`` pushes devices toward ``f_max``
(delay-dominated), small ``kappa`` toward ``f_min`` (energy-dominated).

FEDL keeps Classic FL's random user selection, which is why the paper
reports identical accuracy curves for the two — only delay and energy
differ.
"""

from __future__ import annotations

from typing import Dict, Sequence

import numpy as np

from repro.devices.cpu import DvfsCpu
from repro.devices.device import UserDevice
from repro.devices.population import DevicePopulation
from repro.errors import ConfigurationError
from repro.fl.strategy import FrequencyPolicy

__all__ = ["fedl_optimal_frequency", "FedlClosedFormPolicy"]


def fedl_optimal_frequency(cpu: DvfsCpu, kappa: float) -> float:
    """The closed-form frequency ``(kappa/alpha)^(1/3)``, clamped.

    Args:
        cpu: the device CPU (provides ``alpha`` and the clamp range).
        kappa: delay price in joules/second, must be positive.

    Returns:
        The optimal operating frequency within ``[f_min, f_max]``.

    Note:
        The unclamped optimum is independent of ``|D|``: dataset size
        scales both cost terms identically, so it cancels.
    """
    if kappa <= 0:
        raise ConfigurationError(f"kappa must be positive, got {kappa}")
    unclamped = (kappa / cpu.switched_capacitance) ** (1.0 / 3.0)
    return cpu.clamp(unclamped)


class FedlClosedFormPolicy(FrequencyPolicy):
    """Assign every selected device its FEDL closed-form frequency.

    Args:
        kappa: delay price in joules/second. The default 0.2 places the
            unclamped optimum at 1 GHz for the paper's
            ``alpha = 2e-28`` — mid-range for the (0.3, 2.0) GHz fleet.
    """

    def __init__(self, kappa: float = 0.2) -> None:
        if kappa <= 0:
            raise ConfigurationError(f"kappa must be positive, got {kappa}")
        self.kappa = float(kappa)

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
        # Fleets share a handful of capacitance values, so evaluate the
        # cube root once per distinct one with Python's scalar ``**``
        # (:func:`fedl_optimal_frequency`'s exact op) and broadcast.
        cap = population.switched_capacitance
        unique, inverse = np.unique(cap, return_inverse=True)
        table = np.fromiter(
            (
                (self.kappa / value) ** (1.0 / 3.0)
                for value in unique.tolist()
            ),
            dtype=np.float64,
            count=unique.shape[0],
        )
        clamped = population.clamp(table[inverse])
        return dict(
            zip(population.device_ids.tolist(), clamped.tolist())
        )

    def __repr__(self) -> str:
        return f"FedlClosedFormPolicy(kappa={self.kappa})"
