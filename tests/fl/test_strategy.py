"""Tests for strategy base classes and built-ins."""

from unittest.mock import patch

import numpy as np
import pytest

from repro.baselines.fedcs import FedCsSelection
from repro.devices.population import DevicePopulation
from repro.fl.strategy import (
    FrequencyPolicy,
    MaxFrequencyPolicy,
    SelectionStrategy,
    over_selection_extras_population,
)
from repro.sequential import rank_by
from tests.conftest import assign, make_heterogeneous_devices
from tests.full_participation import FullParticipation


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


class TestCachedDelayColumnReaders:
    """Over-selection and FedCS rank by the cached Eq. (9) column
    ``max_frequency_delay``, which equals ``total_delay`` bit for bit."""

    PAYLOAD = 1e6
    BANDWIDTH = 2e6

    @staticmethod
    def population(seed=3):
        sizes = np.random.default_rng(seed).integers(5, 60, size=200)
        return DevicePopulation.from_spec(None, sizes, seed=seed)

    def reference(self, population):
        return population.total_delay(self.PAYLOAD, self.BANDWIDTH)

    @pytest.mark.parametrize("seed", [0, 3, 17])
    def test_column_is_bit_equal_to_total_delay(self, seed):
        population = self.population(seed)
        column = population.max_frequency_delay(self.PAYLOAD, self.BANDWIDTH)
        reference = self.reference(population)
        assert np.array_equal(column.view(np.uint64), reference.view(np.uint64))
        assert not column.flags.writeable

    def test_over_selection_extras_match_the_reference(self):
        population = self.population()
        selected = np.arange(0, 200, 3)
        with patch.object(
            DevicePopulation, "total_delay", side_effect=AssertionError
        ):
            extras = over_selection_extras_population(
                population, selected, 25, self.PAYLOAD, self.BANDWIDTH
            )
        reference = self.reference(population)
        pool = np.setdiff1d(np.arange(200), selected)
        expected = pool[rank_by(reference[pool], population.device_ids[pool])]
        assert np.array_equal(extras, expected[:25])

    def fedcs(self, population):
        strat = FedCsSelection(
            0.5, self.PAYLOAD, self.BANDWIDTH, candidate_fraction=0.5, seed=4
        )
        return strat.select_population(1, population)

    def test_fedcs_matches_the_reference(self):
        cached = self.population()
        with patch.object(
            DevicePopulation, "total_delay", side_effect=AssertionError
        ):
            got = self.fedcs(cached)
        # The same selection over a population whose column is replaced
        # by the total_delay reference.
        recomputed = self.population()
        recomputed.max_frequency_delay = lambda p, b: recomputed.total_delay(
            p, b
        )
        expected = self.fedcs(recomputed)
        assert np.array_equal(got.view(np.uint64), expected.view(np.uint64))
        column = cached.max_frequency_delay(self.PAYLOAD, self.BANDWIDTH)
        assert np.array_equal(column, self.reference(cached))
