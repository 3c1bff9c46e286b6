"""Tests for the on-disk campaign manifest and its status semantics."""

import json

import pytest

from repro.campaign import (
    STATUS_DONE,
    STATUS_FAILED,
    STATUS_PENDING,
    STATUS_RUNNING,
    CampaignManifest,
)
from repro.campaign.watch import snapshot_campaign
from repro.wire import write_atomic
from repro.errors import ConfigurationError, SerializationError
from tests.campaign.conftest import tiny_campaign


@pytest.fixture
def manifest(tmp_path):
    return CampaignManifest.create(str(tmp_path / "camp"), tiny_campaign())


class TestCreateOpen:
    def test_create_writes_spec(self, manifest):
        reopened = CampaignManifest.open(manifest.root)
        assert reopened.spec == manifest.spec
        assert [r.run_id for r in reopened.runs] == [
            r.run_id for r in manifest.runs
        ]

    def test_create_is_idempotent_for_same_spec(self, manifest):
        again = CampaignManifest.create(manifest.root, tiny_campaign())
        assert again.spec == manifest.spec

    def test_create_refuses_different_spec(self, manifest):
        with pytest.raises(ConfigurationError, match="different"):
            CampaignManifest.create(manifest.root, tiny_campaign(seeds=(5,)))

    def test_open_requires_spec_file(self, tmp_path):
        with pytest.raises(ConfigurationError, match="not a campaign"):
            CampaignManifest.open(str(tmp_path / "nowhere"))


class TestStatuses:
    def test_missing_status_file_is_pending(self, manifest):
        status = manifest.read_status("s0-helcfl-c0-f0")
        assert status.status == STATUS_PENDING
        assert status.attempts == 0

    def test_write_read_round_trip(self, manifest):
        manifest.write_status(
            "s0-helcfl-c0-f0", STATUS_FAILED, 3, detail="gave up"
        )
        status = manifest.read_status("s0-helcfl-c0-f0")
        assert status.status == STATUS_FAILED
        assert status.attempts == 3
        assert status.detail == "gave up"

    def test_statuses_in_expansion_order(self, manifest):
        # `campaign status` lists runs in expansion order, whatever
        # order their status files were written in.
        manifest.write_status("s1-classic-c0-f0", STATUS_DONE, 1)
        manifest.write_status("s0-helcfl-c0-f0", STATUS_RUNNING, 2)
        rows = snapshot_campaign(manifest, now=0.0).runs
        assert [row.run_id for row in rows] == [
            r.run_id for r in manifest.runs
        ]
        assert [(row.status, row.attempts) for row in rows] == [
            (STATUS_RUNNING, 2),
            (STATUS_PENDING, 0),
            (STATUS_PENDING, 0),
            (STATUS_DONE, 1),
        ]

    def test_unknown_status_rejected(self, manifest):
        with pytest.raises(ConfigurationError, match="unknown status"):
            manifest.write_status("s0-helcfl-c0-f0", "paused", 1)

    def test_corrupt_status_file_raises(self, manifest):
        run_id = "s0-helcfl-c0-f0"
        manifest.write_status(run_id, STATUS_RUNNING, 1)
        path = manifest._status_path(run_id)
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("{torn")
        with pytest.raises(SerializationError, match="not valid JSON"):
            manifest.read_status(run_id)

    def test_alien_status_value_raises(self, manifest):
        run_id = "s0-helcfl-c0-f0"
        path = manifest._status_path(run_id)
        write_atomic(path, json.dumps({"status": "exploded"}))
        with pytest.raises(SerializationError, match="unknown status"):
            manifest.read_status(run_id)


class TestPendingRuns:
    def test_fresh_campaign_runs_everything(self, manifest):
        pending = manifest.pending_runs()
        assert [r.run_id for r in pending] == [r.run_id for r in manifest.runs]

    def test_resume_skips_done(self, manifest):
        manifest.write_status("s0-helcfl-c0-f0", STATUS_DONE, 1)
        pending = manifest.pending_runs(resume=True)
        assert "s0-helcfl-c0-f0" not in [r.run_id for r in pending]
        assert len(pending) == len(manifest.runs) - 1

    def test_resume_requeues_stranded_running(self, manifest):
        manifest.write_status("s0-classic-c0-f0", STATUS_RUNNING, 1)
        pending = manifest.pending_runs(resume=True)
        assert "s0-classic-c0-f0" in [r.run_id for r in pending]

    def test_resume_requeues_failed(self, manifest):
        manifest.write_status("s1-helcfl-c0-f0", STATUS_FAILED, 3)
        pending = manifest.pending_runs(resume=True)
        assert "s1-helcfl-c0-f0" in [r.run_id for r in pending]

    def test_done_without_resume_errors(self, manifest):
        manifest.write_status("s0-helcfl-c0-f0", STATUS_DONE, 1)
        with pytest.raises(ConfigurationError, match="already done"):
            manifest.pending_runs()

    def test_running_without_resume_errors(self, manifest):
        manifest.write_status("s0-helcfl-c0-f0", STATUS_RUNNING, 1)
        with pytest.raises(ConfigurationError, match="resume"):
            manifest.pending_runs()


class TestAtomicWrite:
    def test_writes_content(self, tmp_path):
        path = tmp_path / "sub" / "file.json"
        write_atomic(str(path), "payload\n")
        assert path.read_text() == "payload\n"

    def test_replaces_existing(self, tmp_path):
        path = tmp_path / "file.json"
        write_atomic(str(path), "old")
        write_atomic(str(path), "new")
        assert path.read_text() == "new"

    def test_no_tmp_droppings(self, tmp_path):
        write_atomic(str(tmp_path / "file.json"), "x")
        assert [p.name for p in tmp_path.iterdir()] == ["file.json"]
