"""Tests for artifact export/import."""

import json

import pytest

from repro.errors import SerializationError
from repro.experiments.export import (
    load_fig2,
    load_fig3,
    load_history,
    load_table1,
    save_fig2,
    save_fig3,
    save_history,
    save_table1,
)
from repro.experiments.fig2 import run_fig2
from repro.experiments.fig3 import derive_fig3
from repro.experiments.settings import ExperimentSettings
from repro.experiments.table1 import derive_table1


@pytest.fixture(scope="module")
def settings():
    return ExperimentSettings.quick(seed=21, rounds=6)


@pytest.fixture(scope="module")
def fig2(settings):
    return run_fig2(
        settings, iid=True, strategies=("helcfl", "classic")
    )


class TestHistoryRoundTrip:
    def test_roundtrip(self, tmp_path, fig2):
        history = fig2.histories["helcfl"]
        path = tmp_path / "run.json"
        save_history(history, path)
        restored = load_history(path)
        assert restored.to_json() == history.to_json()


class TestFig2RoundTrip:
    def test_roundtrip(self, tmp_path, fig2):
        path = tmp_path / "fig2.json"
        save_fig2(fig2, path)
        restored = load_fig2(path)
        assert restored.iid == fig2.iid
        assert set(restored.histories) == set(fig2.histories)
        assert restored.best_accuracies() == fig2.best_accuracies()


class TestTable1RoundTrip:
    def test_roundtrip(self, tmp_path, fig2):
        table = derive_table1(fig2)
        path = tmp_path / "table1.json"
        save_table1(table, path)
        restored = load_table1(path)
        assert restored.targets == table.targets
        assert restored.delays == table.delays

    def test_none_delays_preserved(self, tmp_path, fig2):
        table = derive_table1(fig2, targets=(0.9999,))
        path = tmp_path / "table1x.json"
        save_table1(table, path)
        restored = load_table1(path)
        assert restored.delays["helcfl"][0.9999] is None


class TestFig3RoundTrip:
    def test_roundtrip(self, tmp_path, fig2):
        result = derive_fig3(fig2)
        path = tmp_path / "fig3.json"
        save_fig3(result, path)
        restored = load_fig3(path)
        assert restored.iid == result.iid
        assert len(restored.entries) == len(result.entries)
        assert restored.total_energy_reduction == pytest.approx(
            result.total_energy_reduction
        )


class TestErrors:
    def test_missing_file(self, tmp_path):
        with pytest.raises(SerializationError):
            load_history(tmp_path / "nope.json")

    def test_wrong_schema(self, tmp_path, fig2):
        path = tmp_path / "fig2.json"
        save_fig2(fig2, path)
        with pytest.raises(SerializationError):
            load_history(path)

    def test_not_a_document(self, tmp_path):
        path = tmp_path / "junk.json"
        path.write_text(json.dumps([1, 2, 3]))
        with pytest.raises(SerializationError):
            load_history(path)

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(SerializationError):
            load_history(path)
