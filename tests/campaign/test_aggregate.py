"""Tests for campaign aggregation and aggregate comparison."""

import json

import pytest

from repro.campaign import (
    AGGREGATE_SCHEMA,
    CampaignManifest,
    CampaignPool,
    compare_campaigns,
    load_aggregate,
    write_aggregate,
)
from repro.errors import ConfigurationError, SerializationError
from repro.obs.analysis import CompareThresholds
from tests.campaign.conftest import tiny_campaign


def aggregate_campaign(manifest):
    """The campaign's aggregate document, as ``campaign compare`` reads it."""
    return load_aggregate(write_aggregate(manifest))


@pytest.fixture(scope="module")
def finished_manifest(tmp_path_factory):
    root = tmp_path_factory.mktemp("agg-campaign")
    manifest = CampaignManifest.create(str(root), tiny_campaign())
    statuses = CampaignPool(manifest).run()
    assert set(statuses.values()) == {"done"}
    return manifest


class TestAggregate:
    def test_document_shape(self, finished_manifest):
        document = aggregate_campaign(finished_manifest)
        assert document["schema"] == AGGREGATE_SCHEMA
        assert document["name"] == "tiny"
        assert [r["run_id"] for r in document["runs"]] == [
            r.run_id for r in finished_manifest.runs
        ]
        assert set(document["summary"]) == {"helcfl", "classic"}
        for metrics in document["summary"].values():
            assert set(metrics) == {
                "final_accuracy",
                "best_accuracy",
                "total_time",
                "total_energy",
                "num_rounds",
            }

    def test_rewrite_is_byte_identical(self, finished_manifest):
        first = write_aggregate(finished_manifest)
        with open(first, "rb") as handle:
            before = handle.read()
        second = write_aggregate(finished_manifest)
        with open(second, "rb") as handle:
            assert handle.read() == before

    def test_unfinished_campaign_has_no_aggregate(self, tmp_path):
        manifest = CampaignManifest.create(
            str(tmp_path / "camp"), tiny_campaign()
        )
        with pytest.raises(ConfigurationError, match="pending"):
            aggregate_campaign(manifest)

    def test_load_checks_schema(self, tmp_path, finished_manifest):
        path = write_aggregate(finished_manifest)
        assert load_aggregate(path)["schema"] == AGGREGATE_SCHEMA
        alien = tmp_path / "alien.json"
        alien.write_text(json.dumps({"schema": "other"}))
        with pytest.raises(SerializationError, match="not a"):
            load_aggregate(str(alien))


class TestCompare:
    def test_identical_aggregates_pass_strict(self, finished_manifest):
        document = aggregate_campaign(finished_manifest)
        comparisons, regressed = compare_campaigns(
            document, document, thresholds=CompareThresholds(strict=True)
        )
        assert len(comparisons) == len(finished_manifest.runs)
        assert not regressed

    def test_run_set_mismatch_regresses(self, finished_manifest):
        document = aggregate_campaign(finished_manifest)
        shrunk = dict(document)
        shrunk["runs"] = document["runs"][:-1]
        _, regressed = compare_campaigns(document, shrunk)
        assert regressed
        _, regressed = compare_campaigns(shrunk, document)
        assert regressed

    def test_metric_drift_regresses_strict(self, finished_manifest):
        document = aggregate_campaign(finished_manifest)
        drifted = json.loads(json.dumps(document))
        drifted["runs"][0]["stats"]["total_energy"] *= 1.5
        comparisons, regressed = compare_campaigns(
            document, drifted, thresholds=CompareThresholds(strict=True)
        )
        assert regressed
        assert any(not c.ok for c in comparisons)
