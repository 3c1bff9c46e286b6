"""Tests for TrainingHistory (the Table I / Fig. 3 measurement record)."""

import json
from dataclasses import fields

import pytest

from repro.errors import TrainingError
from repro.fl.history import RoundRecord, TrainingHistory


def record(
    round_index,
    cumulative_time,
    cumulative_energy,
    accuracy=None,
    selected=(0, 1),
):
    return RoundRecord(
        round_index=round_index,
        selected_ids=tuple(selected),
        frequencies={i: 1e9 for i in selected},
        round_delay=cumulative_time / round_index,
        round_energy=cumulative_energy / round_index,
        compute_energy=0.6 * cumulative_energy / round_index,
        upload_energy=0.4 * cumulative_energy / round_index,
        slack=0.1,
        cumulative_time=cumulative_time,
        cumulative_energy=cumulative_energy,
        train_loss=1.0 / round_index,
        test_accuracy=accuracy,
    )


def sample_history():
    history = TrainingHistory(label="test")
    history.append(record(1, 10.0, 1.0, accuracy=0.3))
    history.append(record(2, 20.0, 2.0, accuracy=0.5, selected=(2, 3)))
    history.append(record(3, 30.0, 3.0, accuracy=None))
    history.append(record(4, 40.0, 4.0, accuracy=0.7, selected=(0, 3)))
    return history


class TestAppend:
    def test_length(self):
        assert len(sample_history()) == 4

    def test_non_increasing_round_rejected(self):
        history = TrainingHistory()
        history.append(record(2, 10.0, 1.0))
        with pytest.raises(TrainingError):
            history.append(record(2, 20.0, 2.0))


class TestTotals:
    def test_totals(self):
        history = sample_history()
        assert history.total_time == 40.0
        assert history.total_energy == 4.0

    def test_empty_totals(self):
        history = TrainingHistory()
        assert history.total_time == 0.0
        assert history.total_energy == 0.0


class TestAccuracyQueries:
    def test_best_and_final(self):
        history = sample_history()
        assert history.best_accuracy == 0.7
        assert history.final_accuracy == 0.7

    def test_accuracy_series_skips_unevaluated(self):
        series = sample_history().accuracy_series()
        assert [s[0] for s in series] == [1, 2, 4]

    def test_time_to_accuracy(self):
        history = sample_history()
        assert history.time_to_accuracy(0.4) == 20.0
        assert history.time_to_accuracy(0.3) == 10.0

    def test_time_to_accuracy_unreachable_is_none(self):
        """The paper's 'x' entries."""
        assert sample_history().time_to_accuracy(0.9) is None

    def test_energy_to_accuracy(self):
        history = sample_history()
        assert history.energy_to_accuracy(0.6) == 4.0

    def test_rounds_to_accuracy(self):
        assert sample_history().rounds_to_accuracy(0.5) == 2

    def test_empty_history_queries(self):
        history = TrainingHistory()
        assert history.best_accuracy == 0.0
        assert history.final_accuracy == 0.0
        assert history.time_to_accuracy(0.1) is None


class TestParticipation:
    def test_counts(self):
        counts = sample_history().participation_counts()
        assert counts == {0: 3, 1: 2, 2: 1, 3: 2}

    def test_coverage(self):
        assert sample_history().coverage(8) == pytest.approx(0.5)

    def test_invalid_population(self):
        with pytest.raises(TrainingError):
            sample_history().coverage(0)


class TestSerialization:
    def test_json_roundtrip(self):
        history = sample_history()
        restored = TrainingHistory.from_json(history.to_json())
        assert restored.label == history.label
        assert len(restored) == len(history)
        assert restored.best_accuracy == history.best_accuracy
        assert restored.records[1].selected_ids == (2, 3)
        assert restored.records[2].test_accuracy is None

    def test_json_roundtrip_is_byte_identical_in_field_order(self):
        history = sample_history()
        text = history.to_json()
        assert TrainingHistory.from_json(text).to_json() == text
        assert list(json.loads(text)["records"][0]) == [
            spec.name for spec in fields(RoundRecord)
        ]

    def test_dict_roundtrip_preserves_frequencies(self):
        history = sample_history()
        restored = TrainingHistory.from_dict(history.to_dict())
        assert restored.records[0].frequencies == {0: 1e9, 1: 1e9}

    def test_stop_reason_roundtrip(self):
        history = sample_history()
        history.stop_reason = "deadline"
        restored = TrainingHistory.from_json(history.to_json())
        assert restored.stop_reason == "deadline"

    def test_stop_reason_defaults_to_none(self):
        assert TrainingHistory(label="x").stop_reason is None
        payload = sample_history().to_dict()
        assert payload["stop_reason"] is None
        # Legacy payloads without the key still deserialize.
        del payload["stop_reason"]
        assert TrainingHistory.from_dict(payload).stop_reason is None
