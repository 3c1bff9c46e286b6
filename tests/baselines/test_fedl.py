"""Tests for FEDL's closed-form frequency policy.

``TestClosedForm`` checks the scalar reference in
:mod:`tests.oracles.closed_forms`; ``TestPolicy`` checks ``src/``.
"""

import math

import pytest

from repro.baselines.fedl import FedlClosedFormPolicy
from repro.devices.cpu import DvfsCpu
from repro.errors import ConfigurationError
from tests.conftest import assign, make_heterogeneous_devices
from tests.oracles.closed_forms import fedl_optimal_frequency


def cpu(f_min=0.3e9, f_max=2.0e9, alpha=2e-28):
    return DvfsCpu(f_min=f_min, f_max=f_max, switched_capacitance=alpha)


class TestClosedForm:
    def test_cube_root_formula(self):
        """f* = (kappa / alpha)^(1/3); kappa=0.2, alpha=2e-28 -> 1 GHz."""
        assert fedl_optimal_frequency(cpu(), kappa=0.2) == pytest.approx(1.0e9)

    def test_minimizes_weighted_cost(self):
        """The closed form beats nearby frequencies on E + kappa*T."""
        c = cpu()
        kappa = 0.2
        samples = 100

        def cost(f):
            return c.compute_energy(samples, f) + kappa * c.compute_delay(
                samples, f
            )

        optimum = fedl_optimal_frequency(c, kappa)
        assert cost(optimum) <= cost(optimum * 1.1) + 1e-12
        assert cost(optimum) <= cost(optimum * 0.9) + 1e-12

    def test_clamped_to_fmax(self):
        # Huge kappa: delay-dominated, wants infinite frequency.
        assert fedl_optimal_frequency(cpu(), kappa=1e6) == pytest.approx(2.0e9)

    def test_clamped_to_fmin(self):
        # Tiny kappa: energy-dominated, wants zero frequency.
        assert fedl_optimal_frequency(cpu(), kappa=1e-12) == pytest.approx(0.3e9)

    def test_monotone_in_kappa(self):
        c = cpu()
        freqs = [fedl_optimal_frequency(c, k) for k in (0.01, 0.1, 1.0)]
        assert freqs[0] <= freqs[1] <= freqs[2]

    def test_policy_matches_the_scalar_form(self):
        devices = make_heterogeneous_devices(8, seed=4)
        freqs = assign(FedlClosedFormPolicy(kappa=0.3), devices, 1e6, 2e6)
        assert freqs == {
            d.device_id: fedl_optimal_frequency(d.cpu, 0.3) for d in devices
        }


class TestPolicy:
    def test_assigns_every_device(self):
        devices = make_heterogeneous_devices(5)
        freqs = assign(FedlClosedFormPolicy(kappa=0.2), devices, 1e6, 2e6)
        assert set(freqs) == {d.device_id for d in devices}

    def test_round_index_keyword_ignored(self):
        devices = make_heterogeneous_devices(5)
        policy = FedlClosedFormPolicy(kappa=0.2)
        assert assign(policy, devices, 1e6, 2e6, round_index=3) == assign(
            policy, devices, 1e6, 2e6
        )

    def test_frequencies_within_ranges(self):
        devices = make_heterogeneous_devices(8, seed=2)
        freqs = assign(FedlClosedFormPolicy(kappa=0.2), devices, 1e6, 2e6)
        for device in devices:
            freq = freqs[device.device_id]
            assert device.cpu.f_min <= freq <= device.cpu.f_max

    def test_policy_uses_per_device_clamp(self):
        devices = make_heterogeneous_devices(8, seed=3)
        # Mid-range kappa: devices with f_max below 1 GHz clamp to f_max.
        freqs = assign(FedlClosedFormPolicy(kappa=0.2), devices, 1e6, 2e6)
        for device in devices:
            if device.cpu.f_max < 1.0e9:
                assert freqs[device.device_id] == pytest.approx(device.cpu.f_max)

    @pytest.mark.parametrize("kappa", (-1.0, 0.0, math.nan, math.inf))
    def test_invalid_kappa(self, kappa):
        with pytest.raises(ConfigurationError, match="positive and finite"):
            FedlClosedFormPolicy(kappa=kappa)
