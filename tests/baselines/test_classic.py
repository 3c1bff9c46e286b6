"""Tests for Classic FL random selection."""

import pytest

from repro.baselines.classic import RandomSelection
from repro.errors import ConfigurationError
from tests.conftest import make_heterogeneous_devices, selected_ids


class TestRandomSelection:
    def test_selection_size(self):
        devices = make_heterogeneous_devices(10)
        assert len(selected_ids(RandomSelection(0.3, seed=0), 1, devices)) == 3

    def test_at_least_one(self):
        devices = make_heterogeneous_devices(5)
        assert len(selected_ids(RandomSelection(0.01, seed=0), 1, devices)) == 1

    def test_no_duplicates(self):
        devices = make_heterogeneous_devices(10)
        ids = selected_ids(RandomSelection(0.5, seed=1), 1, devices)
        assert len(ids) == len(set(ids))

    def test_seeded_reproducible_after_reset(self):
        devices = make_heterogeneous_devices(10)
        strat = RandomSelection(0.4, seed=2)
        first_run = [selected_ids(strat, r, devices) for r in range(1, 4)]
        strat.reset()
        second_run = [selected_ids(strat, r, devices) for r in range(1, 4)]
        assert first_run == second_run

    def test_varies_across_rounds(self):
        devices = make_heterogeneous_devices(20)
        strat = RandomSelection(0.2, seed=3)
        rounds = [
            frozenset(selected_ids(strat, r, devices)) for r in range(1, 10)
        ]
        assert len(set(rounds)) > 1

    def test_uniform_coverage_over_many_rounds(self):
        """Every user is eventually selected (no systematic bias)."""
        devices = make_heterogeneous_devices(10)
        strat = RandomSelection(0.3, seed=4)
        seen = set()
        for round_index in range(1, 60):
            seen.update(selected_ids(strat, round_index, devices))
        assert seen == {d.device_id for d in devices}

    def test_invalid_fraction(self):
        with pytest.raises(ConfigurationError):
            RandomSelection(0.0)
        with pytest.raises(ConfigurationError):
            RandomSelection(1.1)
