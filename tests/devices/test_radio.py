"""Tests for the radio model (paper Eqs. 6-8)."""

import math

import pytest

from repro.devices.radio import Radio
from repro.errors import DeviceError


class TestEquations:
    def test_eq6_upload_rate(self):
        """R = Z * log2(1 + p h^2 / N0) with the paper's settings."""
        radio = Radio(transmit_power=0.2, channel_gain=1.0, noise_power=1e-2)
        snr = 0.2 * 1.0 / 1e-2  # 20
        expected = 2e6 * math.log2(21.0)
        assert radio.upload_rate(2e6) == pytest.approx(expected)

    def test_eq7_upload_delay(self):
        radio = Radio(0.2, 1.0, 1e-2)
        rate = radio.upload_rate(2e6)
        assert radio.upload_delay(1e6, 2e6) == pytest.approx(1e6 / rate)

    def test_eq8_upload_energy(self):
        radio = Radio(0.2, 1.0, 1e-2)
        delay = radio.upload_delay(1e6, 2e6)
        assert radio.upload_energy(1e6, 2e6) == pytest.approx(0.2 * delay)

    def test_rate_increases_with_bandwidth(self):
        radio = Radio(0.2, 1.0, 1e-2)
        assert radio.upload_rate(4e6) == pytest.approx(2 * radio.upload_rate(2e6))

    def test_rate_increases_with_gain(self):
        weak = Radio(0.2, 0.5, 1e-2)
        strong = Radio(0.2, 2.0, 1e-2)
        assert strong.upload_rate(2e6) > weak.upload_rate(2e6)

    def test_delay_linear_in_payload(self):
        radio = Radio(0.2, 1.0, 1e-2)
        assert radio.upload_delay(2e6, 2e6) == pytest.approx(
            2 * radio.upload_delay(1e6, 2e6)
        )

    def test_zero_payload(self):
        radio = Radio(0.2, 1.0, 1e-2)
        assert radio.upload_delay(0, 2e6) == 0.0
        assert radio.upload_energy(0, 2e6) == 0.0

    def test_snr_property(self):
        radio = Radio(0.2, 2.0, 1e-2)
        assert radio.snr == pytest.approx(0.2 * 4.0 / 1e-2)


class TestValidation:
    def test_non_positive_power(self):
        with pytest.raises(DeviceError):
            Radio(transmit_power=0.0)

    def test_non_positive_gain(self):
        with pytest.raises(DeviceError):
            Radio(channel_gain=0.0)

    @pytest.mark.parametrize("gain", [float("nan"), float("inf"), -0.5])
    def test_non_finite_gain(self, gain):
        with pytest.raises(DeviceError, match="finite and positive"):
            Radio(channel_gain=gain)

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    @pytest.mark.parametrize("name", ["transmit_power", "noise_power"])
    def test_non_finite_power(self, name, value):
        with pytest.raises(DeviceError, match="finite and positive"):
            Radio(**{name: value})

    def test_non_positive_noise(self):
        with pytest.raises(DeviceError):
            Radio(noise_power=0.0)

    def test_non_positive_bandwidth(self):
        with pytest.raises(DeviceError):
            Radio().upload_rate(0.0)

    def test_negative_payload(self):
        with pytest.raises(DeviceError):
            Radio().upload_delay(-1.0, 2e6)

    @pytest.mark.parametrize("payload", [math.inf, -math.inf, math.nan])
    def test_non_finite_payload(self, payload):
        # ``NaN < 0`` is False, so a sign test alone would let NaN through.
        with pytest.raises(DeviceError, match="finite"):
            Radio().upload_delay(payload, 2e6)
        with pytest.raises(DeviceError, match="finite"):
            Radio().upload_energy(payload, 2e6)
