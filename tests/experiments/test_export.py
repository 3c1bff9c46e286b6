"""Tests for artifact export: each document decodes back to its result.

The library only writes artifacts; these tests read a document's
payload back with the record decoders the library already has, and
``tests/integration/test_artifact_bytes_pinned.py`` pins the bytes.
"""

import json

import pytest

from repro import wire
from repro.experiments.export import (
    save_fig2,
    save_fig3,
    save_history,
    save_table1,
)
from repro.experiments.fig2 import run_fig2
from repro.experiments.fig3 import Fig3Result, derive_fig3
from repro.experiments.settings import ExperimentSettings
from repro.experiments.table1 import derive_table1
from repro.fl.history import TrainingHistory


@pytest.fixture(scope="module")
def settings():
    return ExperimentSettings.quick(seed=21, rounds=6)


@pytest.fixture(scope="module")
def fig2(settings):
    return run_fig2(
        settings, iid=True, strategies=("helcfl", "classic")
    )


def payload(path, schema):
    """The payload of the version-1 ``schema`` document at ``path``."""
    with open(path, encoding="utf-8") as handle:
        document = json.load(handle)
    assert list(document) == ["schema", "version", "payload"]
    assert document["schema"] == schema and document["version"] == 1
    return document["payload"]


class TestHistoryRoundTrip:
    def test_roundtrip(self, tmp_path, fig2):
        history = fig2.histories["helcfl"]
        path = tmp_path / "run.json"
        save_history(history, path)
        restored = TrainingHistory.from_dict(payload(path, "repro.history"))
        assert restored.to_json() == history.to_json()


class TestFig2RoundTrip:
    def test_roundtrip(self, tmp_path, fig2):
        path = tmp_path / "fig2.json"
        save_fig2(fig2, path)
        restored = payload(path, "repro.fig2")
        assert restored["iid"] == fig2.iid
        assert {
            name: TrainingHistory.from_dict(raw).to_json()
            for name, raw in restored["histories"].items()
        } == {name: h.to_json() for name, h in fig2.histories.items()}


class TestTable1RoundTrip:
    def test_roundtrip(self, tmp_path, fig2):
        table = derive_table1(fig2)
        path = tmp_path / "table1.json"
        save_table1(table, path)
        restored = payload(path, "repro.table1")
        assert tuple(restored["targets"]) == table.targets
        assert restored["delays"] == {
            name: {str(t): v for t, v in per_target.items()}
            for name, per_target in table.delays.items()
        }

    def test_none_delays_preserved(self, tmp_path, fig2):
        table = derive_table1(fig2, targets=(0.9999,))
        path = tmp_path / "table1x.json"
        save_table1(table, path)
        restored = payload(path, "repro.table1")
        assert restored["delays"]["helcfl"] == {"0.9999": None}


class TestFig3RoundTrip:
    def test_roundtrip(self, tmp_path, fig2):
        result = derive_fig3(fig2)
        path = tmp_path / "fig3.json"
        save_fig3(result, path)
        restored = wire.load(Fig3Result, payload(path, "repro.fig3"))
        assert restored.iid == result.iid
        assert len(restored.entries) == len(result.entries)
        assert restored.total_energy_reduction == pytest.approx(
            result.total_energy_reduction
        )
