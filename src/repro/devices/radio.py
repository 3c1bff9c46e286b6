"""Radio (uplink) model — the paper's local communication model.

Implements:

* **Eq. (6)** upload rate   ``R = Z * log2(1 + p * h^2 / N0)``
* **Eq. (7)** upload delay  ``T_com = C_model / R``
* **Eq. (8)** upload energy ``E_com = p * T_com``

``Z`` is the MEC system's total resource blocks in Hz (the paper's TDMA
scheme grants the full 2 MHz to one uploader at a time), ``p`` the
transmission power, ``h`` the channel gain, and ``N0`` the background
noise power.
"""

from __future__ import annotations

import math

from repro.errors import DeviceError

__all__ = ["Radio"]


def zero_rate_message(gain: float) -> str:
    """Why a gain whose Eq. (6) rate rounds to 0 is refused."""
    return (
        f"channel_gain {gain} gives a zero upload rate: "
        "1 + p h^2 / N0 rounds to 1"
    )


class Radio:
    """A user device's uplink radio.

    Args:
        transmit_power: transmission power ``p`` in watts (paper: 0.2).
        channel_gain: amplitude channel gain ``h`` (unitless).
        noise_power: background noise power ``N0`` in watts.
    """

    def __init__(
        self,
        transmit_power: float = 0.2,
        channel_gain: float = 1.0,
        noise_power: float = 1e-2,
    ) -> None:
        for name, value in (
            ("transmit_power", transmit_power),
            ("noise_power", noise_power),
        ):
            # Tested as "inside" so NaN is rejected along with +inf.
            if not 0.0 < value < math.inf:
                raise DeviceError(f"{name} must be finite and positive, got {value}")
        self.transmit_power = float(transmit_power)
        self.noise_power = float(noise_power)
        self.channel_gain = channel_gain

    @property
    def channel_gain(self) -> float:
        """Amplitude channel gain ``h``.

        Raises:
            DeviceError: on assigning a gain that is not finite and
                positive, or whose ``log2(1 + snr)`` rounds to 0 (a zero
                upload rate); the old gain is kept.
        """
        return self._channel_gain

    @channel_gain.setter
    def channel_gain(self, gain: float) -> None:
        value = float(gain)
        # Tested as "inside" so NaN is rejected along with +inf.
        if not 0.0 < value < math.inf:
            raise DeviceError(f"channel_gain must be finite and positive, got {value}")
        if math.log2(1.0 + self.transmit_power * value**2 / self.noise_power) == 0.0:
            raise DeviceError(zero_rate_message(value))
        self._channel_gain = value

    @property
    def snr(self) -> float:
        """Signal-to-noise ratio ``p * h^2 / N0``."""
        return self.transmit_power * self._channel_gain**2 / self.noise_power

    def upload_rate(self, bandwidth_hz: float) -> float:
        """Eq. (6): achievable uplink rate in bits/second.

        Args:
            bandwidth_hz: the resource blocks ``Z`` granted, in Hz.
        """
        if bandwidth_hz <= 0:
            raise DeviceError(f"bandwidth must be positive, got {bandwidth_hz}")
        return bandwidth_hz * math.log2(1.0 + self.snr)

    def upload_delay(self, payload_bits: float, bandwidth_hz: float) -> float:
        """Eq. (7): seconds to upload ``payload_bits`` (``C_model``)."""
        # Tested as "inside" so NaN is rejected along with +inf.
        if not 0.0 <= payload_bits < math.inf:
            raise DeviceError(
                f"payload must be finite and non-negative, got {payload_bits}"
            )
        rate = self.upload_rate(bandwidth_hz)
        return payload_bits / rate

    def upload_energy(self, payload_bits: float, bandwidth_hz: float) -> float:
        """Eq. (8): joules to upload ``payload_bits`` at full power."""
        return self.transmit_power * self.upload_delay(payload_bits, bandwidth_hz)

    def __repr__(self) -> str:
        return (
            f"Radio(p={self.transmit_power}W, h={self.channel_gain:.3g}, "
            f"N0={self.noise_power:.3g}W)"
        )
