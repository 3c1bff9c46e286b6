"""Tests for the DVFS CPU model (paper Eqs. 4-5)."""

import pytest

from repro.devices.cpu import DvfsCpu
from repro.errors import DeviceError, FrequencyRangeError


def cpu(f_min=0.3e9, f_max=2.0e9, pi=1e7, alpha=2e-28, levels=None):
    return DvfsCpu(
        f_min=f_min,
        f_max=f_max,
        cycles_per_sample=pi,
        switched_capacitance=alpha,
        frequency_levels=levels,
    )


class TestEquations:
    def test_eq4_compute_delay(self):
        """T_cal = pi * |D| / f with the paper's constants."""
        c = cpu()
        # pi=1e7, |D|=500, f=1 GHz -> 5e9 / 1e9 = 5 s.
        assert c.compute_delay(500, 1.0e9) == pytest.approx(5.0)

    def test_eq4_scales_inverse_frequency(self):
        c = cpu()
        assert c.compute_delay(100, 2.0e9) == pytest.approx(
            c.compute_delay(100, 1.0e9) / 2.0
        )

    def test_eq5_compute_energy(self):
        """E_cal = (alpha/2) * pi * |D| * f^2."""
        c = cpu(alpha=2e-28)
        # (1e-28) * 1e7 * 500 * (1e9)^2 = 1e-28 * 5e9 * 1e18 = 0.5 J.
        assert c.compute_energy(500, 1.0e9) == pytest.approx(0.5)

    def test_eq5_quadratic_in_frequency(self):
        c = cpu()
        assert c.compute_energy(100, 2.0e9) == pytest.approx(
            4.0 * c.compute_energy(100, 1.0e9)
        )

    def test_default_frequency_is_max(self):
        c = cpu()
        assert c.compute_delay(100) == c.compute_delay(100, c.f_max)
        assert c.compute_energy(100) == c.compute_energy(100, c.f_max)

    def test_frequency_for_delay_inverts_eq4(self):
        c = cpu()
        delay = c.compute_delay(300, 1.4e9)
        assert c.frequency_for_delay(300, delay) == pytest.approx(1.4e9)

    def test_energy_delay_tradeoff(self):
        """Lower frequency: longer delay, less energy (the DVFS premise)."""
        c = cpu()
        assert c.compute_delay(100, 0.5e9) > c.compute_delay(100, 1.5e9)
        assert c.compute_energy(100, 0.5e9) < c.compute_energy(100, 1.5e9)

    def test_zero_samples(self):
        c = cpu()
        assert c.compute_delay(0) == 0.0
        assert c.compute_energy(0) == 0.0

    def test_min_max_delay(self):
        c = cpu()
        fast, slow = c.min_max_delay(100)
        assert fast < slow


class TestFrequencyHandling:
    def test_validate_in_range(self):
        assert cpu().validate_frequency(1.0e9) == 1.0e9

    def test_validate_out_of_range_raises(self):
        with pytest.raises(FrequencyRangeError):
            cpu().validate_frequency(2.5e9)
        with pytest.raises(FrequencyRangeError):
            cpu().validate_frequency(0.1e9)

    def test_clamp(self):
        c = cpu()
        assert c.clamp(5e9) == c.f_max
        assert c.clamp(1e8) == c.f_min
        assert c.clamp(1e9) == 1e9

    def test_quantize_continuous_is_clamp(self):
        c = cpu()
        assert c.quantize(1.234e9) == 1.234e9

    def test_quantize_rounds_up(self):
        c = cpu(levels=[0.5e9, 1.0e9, 1.5e9, 2.0e9])
        assert c.quantize(0.6e9) == 1.0e9
        assert c.quantize(1.0e9) == 1.0e9
        assert c.quantize(1.9e9) == 2.0e9

    def test_quantize_below_ladder(self):
        c = cpu(levels=[0.5e9, 2.0e9])
        assert c.quantize(0.3e9) == 0.5e9

    def test_ladder_must_include_fmax(self):
        with pytest.raises(DeviceError):
            cpu(levels=[0.5e9, 1.0e9])

    def test_ladder_outside_range_rejected(self):
        with pytest.raises(DeviceError):
            cpu(levels=[0.1e9, 2.0e9])


class TestValidation:
    def test_negative_frequency_rejected(self):
        with pytest.raises(DeviceError):
            cpu(f_min=-1.0)

    def test_min_above_max_rejected(self):
        with pytest.raises(DeviceError):
            cpu(f_min=2e9, f_max=1e9)

    def test_bad_constants_rejected(self):
        with pytest.raises(DeviceError):
            cpu(pi=0)
        with pytest.raises(DeviceError):
            cpu(alpha=-1e-28)

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    @pytest.mark.parametrize("name", ["f_min", "f_max", "pi", "alpha"])
    def test_non_finite_constants_rejected(self, name, value):
        with pytest.raises(DeviceError, match="finite and positive"):
            cpu(**{name: value})

    def test_negative_samples_rejected(self):
        with pytest.raises(DeviceError):
            cpu().cycles_for(-1)

    def test_non_positive_target_delay_rejected(self):
        with pytest.raises(DeviceError):
            cpu().frequency_for_delay(100, 0.0)
