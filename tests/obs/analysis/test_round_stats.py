"""Tests for the per-round / per-device trace analytics.

The acceptance contract: analytics computed from a traced run's JSONL
stream reproduce the run's :class:`TrainingHistory` and
:class:`EnergyLedger` *bitwise* (the analysis sums in emission order),
and the Eq. (5) DVFS counterfactual matches an independent
recomputation from the traced frequencies.
"""

import builtins
import json
from dataclasses import fields
from pathlib import Path

import pytest

from repro.errors import SerializationError
from repro.faults import DropoutFault, FaultPlan
from repro.obs import (
    AggregationEvent,
    DeviceRoundEvent,
    RunStopEvent,
    SelectionEvent,
    StopReason,
)
from repro.obs.analysis import (
    ANALYSIS_SCHEMA,
    DeviceStats,
    RoundStats,
    RunStats,
    compute_run_stats,
    jain_index,
    load_trace,
    split_runs,
)
from tests.neumaier import neumaier_sum
from tests.obs.analysis.conftest import run_traced_helcfl


class TestJainIndex:
    def test_uniform_is_one(self):
        assert jain_index([3.0, 3.0, 3.0, 3.0]) == pytest.approx(1.0)

    def test_single_hot_is_one_over_n(self):
        assert jain_index([5.0, 0.0, 0.0, 0.0]) == pytest.approx(0.25)

    def test_empty_and_all_zero_read_as_fair(self):
        assert jain_index([]) == 1.0
        assert jain_index([0.0, 0.0]) == 1.0

    def test_between_extremes(self):
        value = jain_index([1.0, 2.0, 3.0])
        assert 1 / 3 < value < 1.0


def _stop(round_index, label="run"):
    return RunStopEvent(
        round_index=round_index,
        reason=StopReason.ROUNDS_EXHAUSTED.value,
        cumulative_time=1.0,
        cumulative_energy=2.0,
        label=label,
    )


class TestSplitRuns:
    def test_splits_on_run_stop_boundaries(self):
        events = [
            SelectionEvent(round_index=1, selected_ids=(1,)),
            _stop(1, "a"),
            SelectionEvent(round_index=1, selected_ids=(2,)),
            _stop(1, "b"),
        ]
        segments = split_runs(events)
        assert len(segments) == 2
        assert segments[0][-1].label == "a"
        assert segments[1][-1].label == "b"

    def test_trailing_crash_segment_is_kept(self):
        events = [
            SelectionEvent(round_index=1, selected_ids=(1,)),
            _stop(1),
            SelectionEvent(round_index=1, selected_ids=(2,)),
        ]
        segments = split_runs(events)
        assert len(segments) == 2
        assert segments[1][-1].kind == "selection"

    def test_empty_trace_has_no_segments(self):
        assert split_runs([]) == []


class TestCrossCheckAgainstHistory:
    """Analytics from the trace == the run's own accounting, bitwise."""

    def test_rounds_match_training_history_exactly(self, traced_run):
        path, history, _, _ = traced_run
        stats = compute_run_stats(load_trace(str(path)).events)

        assert not stats.truncated
        assert stats.label == history.label
        assert stats.stop_reason == history.stop_reason
        assert stats.num_rounds == len(history.records)
        assert stats.total_time == history.total_time
        assert stats.total_energy == history.total_energy
        for got, want in zip(stats.rounds, history.records):
            assert got.round_index == want.round_index
            assert got.selected_ids == want.selected_ids
            assert got.round_delay == want.round_delay
            assert got.round_energy == want.round_energy
            assert got.compute_energy == want.compute_energy
            assert got.upload_energy == want.upload_energy
            assert got.slack == want.slack
            assert got.cumulative_time == want.cumulative_time
            assert got.cumulative_energy == want.cumulative_energy
            assert got.test_accuracy == want.test_accuracy
            assert got.test_loss == want.test_loss
            assert got.dropped_ids == want.dropped_ids
            assert got.aggregated == len(want.selected_ids) - len(
                want.dropped_ids
            ) - len(want.timeout_ids)

    def test_devices_match_energy_ledger_exactly(self, traced_run):
        path, _, trainer, _ = traced_run
        stats = compute_run_stats(load_trace(str(path)).events)

        assert {d.device_id for d in stats.devices} == set(
            trainer.ledger.devices
        )
        for device in stats.devices:
            ledger = trainer.ledger.devices[device.device_id]
            assert device.compute_joules == ledger.compute_joules
            assert device.upload_joules == ledger.upload_joules
            assert device.slack_seconds == ledger.slack_seconds
            assert device.participated == ledger.rounds

    def test_selection_counts_match_history(self, traced_run):
        path, history, _, _ = traced_run
        stats = compute_run_stats(load_trace(str(path)).events)
        counts = {}
        for record in history.records:
            for device_id in record.selected_ids:
                counts[device_id] = counts.get(device_id, 0) + 1
        assert stats.selection_counts == counts
        assert 0.0 < stats.jain_selection <= 1.0

    def test_dvfs_counterfactual_matches_eq5_recomputation(self, traced_run):
        path, _, _, devices = traced_run
        trace = load_trace(str(path))
        stats = compute_run_stats(trace.events)
        f_max = {d.device_id: d.cpu.f_max for d in devices}

        by_round = {}
        for event in trace.of_kind("device_round"):
            # The trace is self-contained: its f_max matches the fleet.
            assert event.f_max == f_max[event.device_id]
            by_round.setdefault(event.round_index, 0.0)
            by_round[event.round_index] += (
                event.compute_energy * (event.f_max / event.frequency) ** 2
            )
        for r in stats.rounds:
            assert r.fmax_compute_energy == pytest.approx(
                by_round[r.round_index], rel=1e-12
            )
            # Eq. 5: running slower can only save energy.
            assert r.dvfs_savings >= 0.0
        # HELCFL's slack reclamation must actually save on this fleet.
        assert stats.dvfs_savings > 0.0
        assert 0.0 < stats.dvfs_saving_fraction < 1.0
        assert stats.slack_utilization is not None

    def test_per_device_savings_sum_to_run_savings(self, traced_run):
        path, _, _, _ = traced_run
        stats = compute_run_stats(load_trace(str(path)).events)
        assert sum(d.dvfs_savings for d in stats.devices) == pytest.approx(
            stats.dvfs_savings, rel=1e-12
        )


class TestFaultedRunAnalytics:
    def test_fault_and_drop_summaries(self, tmp_path):
        path = tmp_path / "chaos.jsonl"
        plan = FaultPlan(
            seed=6,
            faults=(
                DropoutFault(
                    phase="before_compute",
                    device_id=5,
                    rounds=(2,),
                    probability=1.0,
                ),
            ),
        )
        history, _, _ = run_traced_helcfl(path, faults=plan)
        stats = compute_run_stats(load_trace(str(path)).events)
        assert stats.fault_counts == {"dropout": 1}
        assert stats.drop_causes == {"dropout": 1}
        assert stats.degraded_rounds == 1
        assert stats.clients_dropped == 1
        dropped_rounds = [r for r in stats.rounds if r.dropped_ids]
        assert [r.round_index for r in dropped_rounds] == [2]
        assert dropped_rounds[0].dropped_ids == (5,)
        assert dropped_rounds[0].fault_count == 1
        assert dropped_rounds[0].reassigned_frequencies
        # History agrees.
        assert history.records[1].dropped_ids == (5,)


class TestRunStatsSerialization:
    def test_to_dict_from_dict_round_trip(self, traced_run):
        path, _, _, _ = traced_run
        stats = compute_run_stats(
            load_trace(str(path)).events, source=str(path)
        )
        payload = json.loads(stats.to_json())
        assert payload["schema"] == ANALYSIS_SCHEMA
        rebuilt = RunStats.from_dict(payload)
        assert rebuilt == stats
        assert rebuilt.to_json() == stats.to_json()

    def test_rows_dump_in_field_order(self, traced_run):
        path, _, _, _ = traced_run
        payload = compute_run_stats(load_trace(str(path)).events).to_dict()
        assert list(payload["rounds"][0]) == [
            spec.name for spec in fields(RoundStats)
        ]
        assert list(payload["devices"][0]) == [
            spec.name for spec in fields(DeviceStats)
        ]

    def test_loads_the_committed_pre_span_snapshot(self):
        """``BENCH_scalability.json`` predates spans and is what CI's
        ``--compare`` reads on every run."""
        document = json.loads(
            (Path(__file__).parents[3] / "BENCH_scalability.json").read_text()
        )
        snapshot = document["analytics"]
        assert "spans" not in snapshot
        stats = RunStats.from_dict(snapshot)
        assert stats.num_rounds == len(snapshot["rounds"]) > 0
        assert stats.to_dict()["rounds"] == snapshot["rounds"]
        assert stats.to_dict()["devices"] == snapshot["devices"]
        assert stats.dvfs_savings == snapshot["dvfs_savings"]

    def test_row_missing_a_required_field_is_a_typed_error(self, traced_run):
        path, _, _, _ = traced_run
        payload = compute_run_stats(load_trace(str(path)).events).to_dict()
        del payload["rounds"][0]["selected_ids"]
        with pytest.raises(SerializationError, match="selected_ids"):
            RunStats.from_dict(payload)

    def test_from_dict_rejects_unknown_schema(self):
        with pytest.raises(SerializationError, match="schema"):
            RunStats.from_dict({"schema": "something/else"})


class TestSegmentGuards:
    def test_duplicate_round_selection_is_rejected(self):
        events = [
            SelectionEvent(round_index=1, selected_ids=(1,)),
            SelectionEvent(round_index=1, selected_ids=(2,)),
        ]
        with pytest.raises(SerializationError, match="split_runs"):
            compute_run_stats(events)

    def test_events_after_run_stop_are_rejected(self):
        events = [
            SelectionEvent(round_index=1, selected_ids=(1,)),
            _stop(1),
            SelectionEvent(round_index=2, selected_ids=(1,)),
        ]
        with pytest.raises(SerializationError, match="split_runs"):
            compute_run_stats(events)

    def test_truncated_segment_reports_truncation(self):
        events = [
            SelectionEvent(round_index=1, selected_ids=(1, 2)),
            AggregationEvent(round_index=1, num_updates=2, total_weight=10.0),
        ]
        stats = compute_run_stats(events)
        assert stats.truncated
        assert stats.stop_reason is None
        assert stats.num_rounds == 1
        assert stats.rounds[0].aggregated == 2
        assert stats.rounds[0].round_energy is None
        assert stats.rounds[0].dvfs_savings is None


def _left_fold(values):
    total = 0.0
    for value in values:
        total += value
    return total


class TestFloatTotalsAreLeftFolds:
    """Run totals add left to right whatever builtin ``sum`` does, so a
    trace report reads the same on Python 3.11 and 3.12+ (emulated by
    :mod:`tests.neumaier`, which totals ``[0.1] * 10`` to ``1.0``)."""

    @pytest.fixture(params=["builtin", "compensated"])
    def builtin_sum(self, request, monkeypatch):
        if request.param == "compensated":
            monkeypatch.setattr(builtins, "sum", neumaier_sum)

    @pytest.mark.usefixtures("builtin_sum")
    def test_run_totals(self):
        tenths = [0.1] * 10
        assert _left_fold(tenths) != neumaier_sum(tenths)
        fmax_slack = [0.1] * 9 + [0.3]
        rounds = tuple(
            RoundStats(
                round_index=index + 1,
                selected_ids=(index,),
                compute_energy=0.1,
                upload_energy=0.1,
                slack=0.1,
                fmax_compute_energy=0.1,
                fmax_slack=fmax_slack[index],
                ok_slack=0.1,
            )
            for index in range(10)
        )
        stats = RunStats(
            label="run",
            stop_reason=None,
            truncated=True,
            source="",
            total_time=0.0,
            total_energy=0.0,
            rounds=rounds,
            devices=(),
            fault_counts={},
            drop_causes={},
            degraded_rounds=0,
            battery_drop_rounds=0,
        )
        fold = _left_fold(tenths)
        assert stats.total_compute_energy == fold
        assert stats.total_upload_energy == fold
        assert stats.total_slack == fold
        assert stats.fmax_compute_energy == fold
        assert stats.slack_utilization == 1.0 - fold / _left_fold(fmax_slack)

    @pytest.mark.usefixtures("builtin_sum")
    def test_jain_index(self):
        tenths = [0.1] * 10
        squares = _left_fold([0.1 * 0.1] * 10)
        assert jain_index(tenths) == _left_fold(tenths) ** 2 / (10 * squares)

    @pytest.mark.usefixtures("builtin_sum")
    def test_counterfactual_per_round(self):
        # Ten devices at f_max: the round's Eq. (5) counterfactual is
        # their traced compute energies, totalled left to right.
        entries = [
            DeviceRoundEvent(
                round_index=1,
                device_id=device_id,
                frequency=1e9,
                f_max=1e9,
                compute_delay=0.1,
                upload_delay=0.1,
                slack=0.1,
                compute_energy=0.1,
                upload_energy=0.1,
                outcome="ok",
            )
            for device_id in range(10)
        ]
        events = [SelectionEvent(round_index=1, selected_ids=tuple(range(10)))]
        (stats,) = compute_run_stats(events + entries).rounds
        assert stats.fmax_compute_energy == _left_fold([0.1] * 10)
