"""Tests for the ASCII visualization module."""

import pytest

from repro.errors import ConfigurationError
from repro.network.tdma import simulate_tdma_round
from repro.viz import ascii_bars, ascii_curves, ascii_timeline
from tests.conftest import make_device, make_heterogeneous_devices


class TestCurves:
    def test_renders_all_series_symbols(self):
        chart = ascii_curves(
            {
                "helcfl": [(1, 0.2), (2, 0.5)],
                "classic": [(1, 0.1), (2, 0.3)],
            }
        )
        assert "H" in chart and "C" in chart
        assert "H=helcfl" in chart and "C=classic" in chart

    def test_high_values_render_high(self):
        chart = ascii_curves({"a": [(1.0, 0.95)], "b": [(1.0, 0.05)]},
                             height=10)
        lines = [l for l in chart.splitlines() if "|" in l]
        a_row = next(i for i, l in enumerate(lines) if "A" in l.split("|")[1])
        b_row = next(i for i, l in enumerate(lines) if "B" in l.split("|")[1])
        assert a_row < b_row  # A plotted above B

    def test_duplicate_initials_disambiguated(self):
        chart = ascii_curves({"fedcs": [(1, 0.5)], "fedl": [(2, 0.5)]})
        legend = chart.splitlines()[-1]
        assert "fedcs" in legend and "fedl" in legend
        symbols = [
            part.split("=")[0].strip()
            for part in legend.split("  ")
            if "=" in part
        ]
        assert len(symbols) == 2
        assert len(set(symbols)) == 2

    def test_values_clamped_to_range(self):
        # Out-of-range values must not crash.
        chart = ascii_curves({"a": [(1.0, 2.0), (2.0, -1.0)]})
        assert "A" in chart

    def test_custom_symbols(self):
        chart = ascii_curves({"x": [(1, 0.5)]}, symbols={"x": "*"})
        assert "*" in chart

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            ascii_curves({})
        with pytest.raises(ConfigurationError):
            ascii_curves({"a": [(1, 1)]}, width=0)
        with pytest.raises(ConfigurationError):
            ascii_curves({"a": [(1, 1)]}, y_max=0)


class TestBars:
    def test_largest_bar_fills_width(self):
        chart = ascii_bars([("a", 10.0), ("b", 5.0)], width=20)
        lines = chart.splitlines()
        assert "#" * 20 in lines[0]
        assert "#" * 10 in lines[1]

    def test_unit_follows_the_value(self):
        chart = ascii_bars([("x", 3.0)], unit="J")
        assert "3J" in chart

    def test_zero_values_ok(self):
        chart = ascii_bars([("x", 0.0)])
        assert "|" in chart

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            ascii_bars([])
        with pytest.raises(ConfigurationError):
            ascii_bars([("a", -1.0)])


class TestTimeline:
    def test_renders_each_user_row(self):
        devices = make_heterogeneous_devices(4)
        timeline = simulate_tdma_round(devices, 1e6, 2e6)
        chart = ascii_timeline(timeline)
        for device in devices:
            assert f"user {device.device_id:3d}" in chart

    def test_slack_rendered_as_dots(self):
        devices = [make_device(device_id=i, f_max=1.0e9) for i in range(3)]
        timeline = simulate_tdma_round(devices, 1e6, 2e6)
        chart = ascii_timeline(timeline)
        assert "." in chart  # identical devices queue -> slack exists

    def test_marks_legend(self):
        devices = make_heterogeneous_devices(2)
        chart = ascii_timeline(simulate_tdma_round(devices, 1e6, 2e6))
        assert "compute" in chart and "upload" in chart

    def test_validation(self):
        devices = make_heterogeneous_devices(2)
        timeline = simulate_tdma_round(devices, 1e6, 2e6)
        with pytest.raises(ConfigurationError):
            ascii_timeline(timeline, width=0)
