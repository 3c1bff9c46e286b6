"""Tests for the Fig. 1 artifact module."""

import pytest

from repro.errors import ConfigurationError
from repro.experiments.fig1 import run_fig1


class TestRunFig1:
    def test_default_example_has_slack(self):
        result = run_fig1()
        assert result.report.baseline.total_slack > 0

    def test_algorithm3_removes_slack_and_saves(self):
        result = run_fig1()
        assert result.report.optimized.total_slack < 1e-6
        assert result.report.energy_saving > 0
        assert result.report.delay_overhead <= 1e-9

    def test_render_contains_both_timelines(self):
        text = run_fig1().render()
        assert "Max frequency" in text
        assert "Algorithm 3" in text
        assert "energy saving" in text
        assert text.count("user") >= 8  # 4 users x 2 timelines

    def test_custom_fleet(self):
        result = run_fig1(f_max_ghz=(1.5, 1.4, 1.3))
        assert len(result.report.baseline.users) == 3

    def test_spread_out_fleet_has_little_slack(self):
        """Users far apart in speed do not queue: Fig. 1 needs the
        clustered fleet, which is why the default is clustered."""
        spread = run_fig1(f_max_ghz=(2.0, 0.8, 0.4))
        clustered = run_fig1()
        assert (
            spread.report.baseline.total_slack
            < clustered.report.baseline.total_slack
        )

    def test_deterministic(self):
        a = run_fig1()
        b = run_fig1()
        assert a.report.baseline.total_energy == b.report.baseline.total_energy

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            run_fig1(f_max_ghz=(1.0,))
        with pytest.raises(ConfigurationError):
            run_fig1(samples_per_user=0)

