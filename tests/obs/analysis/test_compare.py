"""Tests for run comparison, threshold gating, and the CLI entrypoint."""

import pytest

from repro.cli import main
from repro.errors import ConfigurationError
from repro.faults import StragglerFault, FaultPlan
from repro.obs.analysis import (
    CompareThresholds,
    RunStats,
    compare_stats,
    render_comparison,
)
from tests.obs.analysis.conftest import run_traced_helcfl


def make_stats(total_energy=10.0, total_time=100.0, label="run"):
    return RunStats(
        label=label,
        stop_reason="rounds_exhausted",
        truncated=False,
        source="",
        total_time=total_time,
        total_energy=total_energy,
        rounds=(),
        devices=(),
        fault_counts={},
        drop_causes={},
        degraded_rounds=0,
        battery_drop_rounds=0,
    )


class TestThresholdGate:
    def test_identical_runs_pass(self):
        comparison = compare_stats(make_stats(), make_stats())
        assert comparison.ok
        assert comparison.regressions == ()

    def test_energy_increase_past_threshold_regresses(self):
        comparison = compare_stats(
            make_stats(total_energy=10.0),
            make_stats(total_energy=10.5),
            CompareThresholds(energy_rel=0.02),
        )
        assert not comparison.ok
        assert [d.metric for d in comparison.regressions] == ["total_energy"]

    def test_energy_increase_within_threshold_passes(self):
        comparison = compare_stats(
            make_stats(total_energy=10.0),
            make_stats(total_energy=10.1),
            CompareThresholds(energy_rel=0.02),
        )
        assert comparison.ok

    def test_improvement_never_regresses(self):
        comparison = compare_stats(
            make_stats(total_energy=10.0, total_time=100.0),
            make_stats(total_energy=5.0, total_time=50.0),
            CompareThresholds(energy_rel=0.0, time_rel=0.0),
        )
        assert comparison.ok

    def test_strict_flags_any_difference(self):
        comparison = compare_stats(
            make_stats(total_energy=10.0),
            make_stats(total_energy=10.0 + 1e-12),
            CompareThresholds(strict=True),
        )
        assert not comparison.ok
        assert "strict" in comparison.regressions[0].note

    def test_strict_passes_identical(self):
        comparison = compare_stats(
            make_stats(), make_stats(), CompareThresholds(strict=True)
        )
        assert comparison.ok

    def test_negative_threshold_rejected(self):
        with pytest.raises(ConfigurationError, match="non-negative"):
            CompareThresholds(energy_rel=-0.1)


class TestSpanDrifts:
    """Span structure is compared informationally, gated only by strict."""

    def with_spans(self, **span_kwargs):
        from dataclasses import replace

        from repro.obs.analysis import SpanSummary

        return replace(make_stats(), spans=SpanSummary(**span_kwargs))

    def test_span_metrics_are_reported(self):
        comparison = compare_stats(make_stats(), make_stats())
        names = [d.metric for d in comparison.drifts]
        for metric in ("spans_total", "spans_unclosed", "span_max_depth",
                       "critical_path_len"):
            assert metric in names

    def test_structure_difference_never_fails_default_gate(self):
        comparison = compare_stats(
            make_stats(),
            self.with_spans(
                spans_total=9, max_depth=3, critical_path=("run",)
            ),
        )
        assert comparison.ok
        drift = {d.metric: d for d in comparison.drifts}["spans_total"]
        assert drift.other == 9.0
        assert not drift.regression

    def test_strict_flags_structure_difference(self):
        comparison = compare_stats(
            make_stats(),
            self.with_spans(spans_total=9),
            CompareThresholds(strict=True),
        )
        assert not comparison.ok
        assert "spans_total" in [d.metric for d in comparison.regressions]

    def test_identical_span_structure_passes_strict(self):
        spans = dict(spans_total=4, max_depth=2, critical_path=("run",))
        comparison = compare_stats(
            self.with_spans(**spans),
            self.with_spans(**spans),
            CompareThresholds(strict=True),
        )
        assert comparison.ok


class TestRendering:
    def test_pass_and_fail_lines(self):
        ok = compare_stats(make_stats(), make_stats())
        assert "RESULT: PASS" in render_comparison(ok)
        bad = compare_stats(
            make_stats(total_energy=1.0),
            make_stats(total_energy=9.0),
        )
        text = render_comparison(bad)
        assert "RESULT: FAIL" in text
        assert "total_energy" in text
        assert "REGRESSION" in text

    def test_strict_mode_is_announced(self):
        text = render_comparison(
            compare_stats(
                make_stats(), make_stats(), CompareThresholds(strict=True)
            )
        )
        assert "strict" in text


class TestEntrypoint:
    """``repro trace-report`` / ``trace-compare`` exit codes on real
    traces."""

    @pytest.fixture(scope="class")
    def traces(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("cmp")
        base = root / "base.jsonl"
        rerun = root / "rerun.jsonl"
        perturbed = root / "perturbed.jsonl"
        run_traced_helcfl(base)
        run_traced_helcfl(rerun)
        # Seeded perturbation: a permanent 4x straggler inflates the
        # traced energy/time well past any small threshold.
        plan = FaultPlan(
            seed=9,
            faults=(
                StragglerFault(
                    slowdown=4.0,
                    device_id=2,
                    probability=1.0,
                ),
            ),
        )
        run_traced_helcfl(perturbed, faults=plan)
        return base, rerun, perturbed

    def test_reruns_compare_clean_even_strict(self, traces, capsys):
        base, rerun, _ = traces
        code = main(["trace-compare", str(base), str(rerun), "--strict"])
        assert code == 0
        assert "RESULT: PASS" in capsys.readouterr().out

    def test_perturbation_past_threshold_exits_nonzero(self, traces, capsys):
        base, _, perturbed = traces
        code = main(
            [
                "trace-compare",
                str(base),
                str(perturbed),
                "--time-threshold",
                "0.01",
                "--energy-threshold",
                "0.01",
            ]
        )
        assert code == 1
        assert "RESULT: FAIL" in capsys.readouterr().out

    def test_report_mode_exits_zero(self, traces, capsys):
        base, _, _ = traces
        assert main(["trace-report", str(base)]) == 0
        assert "Run summary" in capsys.readouterr().out

    def test_snapshot_json_round_trips_through_compare(
        self, traces, tmp_path, capsys
    ):
        base, rerun, _ = traces
        snapshot = tmp_path / "base.json"
        assert (
            main(
                [
                    "trace-report",
                    str(base),
                    "--format",
                    "json",
                    "--output",
                    str(snapshot),
                ]
            )
            == 0
        )
        code = main(
            ["trace-compare", str(snapshot), str(rerun), "--strict"]
        )
        assert code == 0

    def test_unreadable_input_exits_two(self, tmp_path, capsys):
        code = main(["trace-report", str(tmp_path / "missing.jsonl")])
        assert code == 2
        assert "error:" in capsys.readouterr().err
