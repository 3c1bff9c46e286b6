"""Tests for the fault-tolerant campaign pool and crash recovery.

The two kill drills mirror the CI ``campaign-smoke`` job: SIGKILL a
single worker process mid-run (the pool requeues it with resume), and
SIGKILL the whole campaign process group (``--resume`` reconstructs
the frontier from the manifest). Both must end with an aggregate
byte-identical to an uninterrupted campaign's.
"""

import os
import signal
import subprocess
import sys
import time

import pytest

import repro
from repro.campaign import (
    STATUS_DONE,
    STATUS_FAILED,
    CampaignManifest,
    CampaignPool,
    write_aggregate,
)
from repro.errors import ConfigurationError
from tests.campaign.conftest import TINY_SETTINGS, tiny_campaign

# Enough rounds that a worker is still training when the kill lands.
KILL_SETTINGS = dict(TINY_SETTINGS, rounds=8)


def kill_campaign():
    return tiny_campaign(
        seeds=(0, 1),
        strategies=("helcfl",),
        overrides=({"settings": KILL_SETTINGS},),
        pool_workers=2,
        max_retries=2,
    )


@pytest.fixture(scope="module")
def reference_aggregate(tmp_path_factory):
    """The uninterrupted kill-spec campaign's aggregate bytes."""
    root = tmp_path_factory.mktemp("reference-campaign")
    manifest = CampaignManifest.create(str(root), kill_campaign())
    statuses = CampaignPool(manifest).run()
    assert set(statuses.values()) == {STATUS_DONE}
    path = write_aggregate(manifest)
    with open(path, "rb") as handle:
        return handle.read()


def wait_for_checkpoint(run_dir, timeout_s=60.0):
    deadline = time.monotonic() + timeout_s
    path = os.path.join(run_dir, "checkpoint.json")
    while time.monotonic() < deadline:
        if os.path.exists(path):
            return True
        time.sleep(0.01)
    return False


class TestPoolBasics:
    def test_campaign_runs_to_done(self, tmp_path):
        manifest = CampaignManifest.create(
            str(tmp_path / "camp"), tiny_campaign()
        )
        statuses = CampaignPool(manifest).run()
        assert list(statuses) == [r.run_id for r in manifest.runs]
        assert set(statuses.values()) == {STATUS_DONE}
        for run in manifest.runs:
            run_dir = manifest.run_dir(run.run_id)
            for name in ("trace.jsonl", "history.json", "stats.json"):
                assert os.path.exists(os.path.join(run_dir, name))

    def test_resume_of_finished_campaign_is_noop(self, tmp_path):
        manifest = CampaignManifest.create(
            str(tmp_path / "camp"), tiny_campaign()
        )
        pool = CampaignPool(manifest)
        pool.run()
        before = {
            run.run_id: manifest.read_status(run.run_id).attempts
            for run in manifest.runs
        }
        statuses = pool.run(resume=True)
        assert set(statuses.values()) == {STATUS_DONE}
        for run in manifest.runs:
            assert manifest.read_status(run.run_id).attempts == before[
                run.run_id
            ]

    def test_used_dir_without_resume_errors(self, tmp_path):
        manifest = CampaignManifest.create(
            str(tmp_path / "camp"), tiny_campaign()
        )
        pool = CampaignPool(manifest)
        pool.run()
        with pytest.raises(ConfigurationError, match="resume"):
            pool.run()

    def test_validation(self, tmp_path):
        manifest = CampaignManifest.create(
            str(tmp_path / "camp"), tiny_campaign()
        )
        with pytest.raises(ConfigurationError, match="pool_workers"):
            CampaignPool(manifest, pool_workers=0)
        with pytest.raises(ConfigurationError, match="max_retries"):
            CampaignPool(manifest, max_retries=-1)
        with pytest.raises(ConfigurationError, match="run_timeout_s"):
            CampaignPool(manifest, run_timeout_s=0)


class TestWorkerKill:
    def test_sigkilled_worker_is_requeued_and_recovers(
        self, tmp_path, reference_aggregate
    ):
        manifest = CampaignManifest.create(
            str(tmp_path / "victim"), kill_campaign()
        )
        victim_id = manifest.runs[0].run_id
        killed = []

        def hook(run, process, attempt):
            if run.run_id == victim_id and attempt == 1:
                assert wait_for_checkpoint(manifest.run_dir(run.run_id))
                process.kill()
                process.join()
                killed.append(run.run_id)

        statuses = CampaignPool(manifest, spawn_hook=hook).run()
        assert killed == [victim_id]
        assert set(statuses.values()) == {STATUS_DONE}
        assert manifest.read_status(victim_id).attempts == 2
        path = write_aggregate(manifest)
        with open(path, "rb") as handle:
            assert handle.read() == reference_aggregate

    def test_repeatedly_killed_run_fails_permanently(self, tmp_path):
        manifest = CampaignManifest.create(
            str(tmp_path / "victim"), kill_campaign()
        )
        victim_id = manifest.runs[0].run_id

        def hook(run, process, attempt):
            if run.run_id == victim_id:
                process.kill()
                process.join()

        statuses = CampaignPool(
            manifest, spawn_hook=hook, max_retries=1
        ).run()
        assert statuses[victim_id] == STATUS_FAILED
        status = manifest.read_status(victim_id)
        assert status.attempts == 2
        assert "gave up" in status.detail
        # The rest of the campaign still finished.
        others = [r.run_id for r in manifest.runs if r.run_id != victim_id]
        assert all(statuses[r] == STATUS_DONE for r in others)
        # And a partial campaign has no aggregate.
        with pytest.raises(ConfigurationError, match="failed"):
            write_aggregate(manifest)


class TestWholeProcessKill:
    def test_killed_campaign_resumes_byte_identical(
        self, tmp_path, reference_aggregate
    ):
        spec_path = tmp_path / "spec.json"
        kill_campaign().save(str(spec_path))
        victim_dir = tmp_path / "victim"
        src_dir = os.path.dirname(os.path.dirname(repro.__file__))
        env = dict(os.environ)
        env["PYTHONPATH"] = src_dir
        process = subprocess.Popen(
            [
                sys.executable,
                "-m",
                "repro",
                "campaign",
                "run",
                str(spec_path),
                "--dir",
                str(victim_dir),
            ],
            env=env,
            cwd=str(tmp_path),
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
            start_new_session=True,
        )
        try:
            deadline = time.monotonic() + 120.0
            landed = False
            while time.monotonic() < deadline:
                if process.poll() is not None:
                    break  # finished before the kill; resume is a no-op
                for run_id in ("s0-helcfl-c0-f0", "s1-helcfl-c0-f0"):
                    if (
                        victim_dir / "runs" / run_id / "checkpoint.json"
                    ).exists():
                        os.killpg(process.pid, signal.SIGKILL)
                        landed = True
                        break
                if landed:
                    break
                time.sleep(0.01)
            process.wait(timeout=30)
        finally:
            if process.poll() is None:
                os.killpg(process.pid, signal.SIGKILL)
                process.wait()
        manifest = CampaignManifest.open(str(victim_dir))
        statuses = CampaignPool(manifest).run(resume=True)
        assert set(statuses.values()) == {STATUS_DONE}
        path = write_aggregate(manifest)
        with open(path, "rb") as handle:
            assert handle.read() == reference_aggregate
