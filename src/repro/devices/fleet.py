"""Heterogeneous device-fleet generation.

Reproduces the paper's Section VII-A population: 100 users whose
maximum CPU frequencies are uniform over (0.3, 2.0) GHz with a common
0.3 GHz floor, uniform transmit power 0.2 W, and a shared MEC uplink of
Z = 2 MHz. Channel gains may be homogeneous (the paper's implicit
setting) or drawn per-user for extra heterogeneity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.data.dataset import ArrayDataset
from repro.devices.battery import Battery
from repro.devices.cpu import DvfsCpu
from repro.devices.device import UserDevice
from repro.devices.radio import Radio
from repro.errors import DeviceError
from repro.rng import SeedLike, ensure_generator

__all__ = ["FleetSpec", "make_fleet"]


@dataclass(frozen=True)
class FleetSpec:
    """Parameters describing a heterogeneous user population.

    Defaults reproduce the paper's Section VII-A settings. Every
    physical constant is checked here, once: ``DevicePopulation.from_spec``
    fills its columns from a spec without the per-device checks of
    :class:`DvfsCpu` and :class:`Radio`.

    Attributes:
        f_min_hz: common lowest CPU frequency (paper: 0.3 GHz).
        f_max_low_hz: lower bound of the per-user ``f_max`` draw.
        f_max_high_hz: upper bound of the per-user ``f_max`` draw
            (paper: 2.0 GHz).
        cycles_per_sample: the paper's ``pi`` (1e7).
        switched_capacitance: the paper's ``alpha`` (2e-28).
        transmit_power_w: uplink power ``p`` (0.2 W).
        channel_gain_range: per-user channel gain ``h`` drawn uniform
            over this range; a degenerate range gives homogeneous
            channels.
        noise_power_w: background noise ``N0``.
        frequency_levels: optional discrete DVFS ladder expressed as
            fractions of each device's ``f_max`` (e.g. ``(0.25, 0.5,
            0.75, 1.0)``); None means continuous DVFS.
        battery_capacity_j: per-device battery capacity; None disables
            batteries.
    """

    f_min_hz: float = 0.3e9
    f_max_low_hz: float = 0.3e9
    f_max_high_hz: float = 2.0e9
    cycles_per_sample: float = 1e7
    switched_capacitance: float = 2e-28
    transmit_power_w: float = 0.2
    channel_gain_range: Tuple[float, float] = (1.0, 1.0)
    noise_power_w: float = 1e-2
    frequency_levels: Optional[Tuple[float, ...]] = None
    battery_capacity_j: Optional[float] = None

    def __post_init__(self) -> None:
        low, high = self.channel_gain_range
        constants = {
            "f_min_hz": self.f_min_hz,
            "f_max_low_hz": self.f_max_low_hz,
            "f_max_high_hz": self.f_max_high_hz,
            "cycles_per_sample": self.cycles_per_sample,
            "switched_capacitance": self.switched_capacitance,
            "transmit_power_w": self.transmit_power_w,
            "channel_gain_range[0]": low,
            "channel_gain_range[1]": high,
            "noise_power_w": self.noise_power_w,
        }
        if self.battery_capacity_j is not None:
            constants["battery_capacity_j"] = self.battery_capacity_j
        for name, value in constants.items():
            # Tested as "inside" so NaN is rejected along with +inf.
            if not 0.0 < value < math.inf:
                raise DeviceError(
                    f"{name} must be finite and positive, got {value}"
                )
        if self.f_max_low_hz < self.f_min_hz:
            raise DeviceError(
                f"f_max_low_hz ({self.f_max_low_hz}) below f_min_hz "
                f"({self.f_min_hz})"
            )
        if self.f_max_high_hz < self.f_max_low_hz:
            raise DeviceError(
                f"f_max_high_hz ({self.f_max_high_hz}) below f_max_low_hz "
                f"({self.f_max_low_hz})"
            )
        if high < low:
            raise DeviceError(
                f"channel_gain_range must be 0 < low <= high, got "
                f"{self.channel_gain_range}"
            )
        if self.frequency_levels is not None:
            fractions = tuple(self.frequency_levels)
            if not fractions or any(not 0.0 < v <= 1.0 for v in fractions):
                raise DeviceError(
                    "frequency_levels fractions must lie in (0, 1], got "
                    f"{fractions}"
                )
            if max(fractions) != 1.0:
                raise DeviceError("frequency_levels must include 1.0 (= f_max)")


def make_fleet(
    partitions: Sequence[ArrayDataset],
    spec: Optional[FleetSpec] = None,
    seed: SeedLike = None,
) -> List[UserDevice]:
    """Build one :class:`UserDevice` per dataset partition.

    Args:
        partitions: per-user local datasets (e.g. from
            :func:`repro.data.iid_partition`); their order fixes device
            ids ``0..Q-1``.
        spec: population parameters; defaults to the paper's settings.
        seed: seed for the per-user heterogeneity draws.

    Returns:
        A list of devices, one per partition.
    """
    if not partitions:
        raise DeviceError("cannot build a fleet from zero partitions")
    spec = spec or FleetSpec()
    rng = ensure_generator(seed)
    devices: List[UserDevice] = []
    for device_id, dataset in enumerate(partitions):
        f_max = float(
            rng.uniform(spec.f_max_low_hz, spec.f_max_high_hz)
        )
        levels = None
        if spec.frequency_levels is not None:
            raw = sorted(frac * f_max for frac in spec.frequency_levels)
            levels = [max(spec.f_min_hz, min(v, f_max)) for v in raw]
        cpu = DvfsCpu(
            f_min=spec.f_min_hz,
            f_max=f_max,
            cycles_per_sample=spec.cycles_per_sample,
            switched_capacitance=spec.switched_capacitance,
            frequency_levels=levels,
        )
        gain_low, gain_high = spec.channel_gain_range
        gain = (
            gain_low
            if gain_low == gain_high
            else float(rng.uniform(gain_low, gain_high))
        )
        radio = Radio(
            transmit_power=spec.transmit_power_w,
            channel_gain=gain,
            noise_power=spec.noise_power_w,
        )
        battery = (
            Battery(spec.battery_capacity_j)
            if spec.battery_capacity_j is not None
            else None
        )
        devices.append(
            UserDevice(
                device_id=device_id,
                cpu=cpu,
                radio=radio,
                dataset=dataset,
                battery=battery,
            )
        )
    return devices
