"""Tests for strategy base classes and built-ins."""

import numpy as np
import pytest

from repro.devices.population import DevicePopulation
from repro.fl.strategy import (
    FrequencyPolicy,
    FullParticipation,
    MaxFrequencyPolicy,
    SelectionStrategy,
)
from tests.conftest import assign, make_heterogeneous_devices


class NoOpSelection(SelectionStrategy):
    """The smallest concrete strategy: the base's default hooks."""

    def select_population(self, round_index, population):
        return np.arange(1)


class TestBases:
    def test_selection_strategy_abstract(self):
        with pytest.raises(TypeError, match="select_population"):
            SelectionStrategy()

    def test_frequency_policy_abstract(self):
        with pytest.raises(NotImplementedError):
            assign(FrequencyPolicy(), make_heterogeneous_devices(2), 1e6, 2e6)

    def test_reset_is_noop_by_default(self):
        NoOpSelection().reset()

    def test_observe_losses_is_noop_by_default(self):
        # The trainer calls the hook unconditionally every round; the
        # base class must accept and ignore the feedback.
        NoOpSelection().observe_losses({0: 1.0, 1: 0.5})

    def test_assign_accepts_round_index_keyword(self):
        devices = make_heterogeneous_devices(3)
        policy = MaxFrequencyPolicy()
        plain = assign(policy, devices, 1e6, 2e6)
        with_round = assign(policy, devices, 1e6, 2e6, round_index=12)
        assert plain == with_round

    def test_assign_round_index_is_keyword_only(self):
        devices = make_heterogeneous_devices(2)
        with pytest.raises(TypeError):
            MaxFrequencyPolicy().assign(
                devices,
                1e6,
                2e6,
                3,
                population=DevicePopulation.from_devices(devices),
            )

    def test_assign_requires_the_population(self):
        with pytest.raises(TypeError, match="population"):
            MaxFrequencyPolicy().assign(make_heterogeneous_devices(2), 1e6, 2e6)


class TestFullParticipation:
    def test_selects_everyone(self):
        population = DevicePopulation.from_devices(make_heterogeneous_devices(7))
        positions = FullParticipation().select_population(1, population)
        assert positions.tolist() == list(range(7))


class TestMaxFrequencyPolicy:
    def test_assigns_fmax(self):
        devices = make_heterogeneous_devices(5)
        freqs = assign(MaxFrequencyPolicy(), devices, 1e6, 2e6)
        for device in devices:
            assert freqs[device.device_id] == device.cpu.f_max

    def test_covers_all_selected(self):
        devices = make_heterogeneous_devices(4)
        freqs = assign(MaxFrequencyPolicy(), devices, 1e6, 2e6)
        assert set(freqs) == {d.device_id for d in devices}
