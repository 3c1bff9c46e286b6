"""Tests for the per-seed statistics helpers."""

import pytest

from repro.analysis.stats import mean_std, paired_gap
from repro.errors import ConfigurationError


class TestStats:
    def test_mean_std(self):
        mean, std = mean_std([1.0, 2.0, 3.0])
        assert mean == pytest.approx(2.0)
        assert std == pytest.approx(1.0)

    def test_single_value_std_zero(self):
        assert mean_std([5.0]) == (5.0, 0.0)

    def test_empty_raises(self):
        with pytest.raises(ConfigurationError):
            mean_std([])

    def test_paired_gap(self):
        mean, std, wins = paired_gap([2.0, 3.0, 4.0], [1.0, 1.0, 5.0])
        assert mean == pytest.approx(2.0 / 3.0)
        assert wins == pytest.approx(2.0 / 3.0)
        assert std > 0

    def test_paired_gap_mismatch(self):
        with pytest.raises(ConfigurationError):
            paired_gap([1.0], [1.0, 2.0])
