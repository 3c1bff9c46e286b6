"""Tests for the read-only campaign monitor (``campaign status`` and
``campaign watch``)."""

import io
import json
import os

import pytest

from repro.campaign import render_snapshot, snapshot_campaign, watch
from repro.campaign.manifest import (
    STATUS_DONE,
    STATUS_FAILED,
    STATUS_RUNNING,
    CampaignManifest,
)
from repro.campaign.watch import _bar, _fmt_duration, scan_trace_progress
from repro.cli import main
from tests.campaign.conftest import tiny_campaign

RUN_A = "s0-helcfl-c0-f0"
RUN_B = "s0-classic-c0-f0"


@pytest.fixture
def manifest(tmp_path):
    return CampaignManifest.create(str(tmp_path / "camp"), tiny_campaign())


def write_trace(manifest, run_id, rounds, torn_tail=False):
    run_dir = manifest.run_dir(run_id)
    os.makedirs(run_dir, exist_ok=True)
    lines = [json.dumps({"event": "run_start", "label": run_id})]
    for j in range(1, rounds + 1):
        lines.append(json.dumps({"event": "timeline", "round_index": j}))
    text = "\n".join(lines) + "\n"
    if torn_tail:
        text += '{"event": "timeline", "round_ind'  # worker mid-write
    path = os.path.join(run_dir, "trace.jsonl")
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text)
    return path


class TestScanTraceProgress:
    def test_missing_trace_counts_zero(self, tmp_path):
        assert scan_trace_progress(str(tmp_path / "nope.jsonl")) == 0

    def test_counts_max_timeline_round(self, manifest):
        path = write_trace(manifest, RUN_A, rounds=3)
        assert scan_trace_progress(path) == 3

    def test_torn_tail_is_ignored(self, manifest):
        path = write_trace(manifest, RUN_A, rounds=2, torn_tail=True)
        assert scan_trace_progress(path) == 2

    def test_resumed_duplicates_never_double_count(self, manifest):
        path = write_trace(manifest, RUN_A, rounds=2)
        with open(path, "a", encoding="utf-8") as handle:
            handle.write(
                json.dumps({"event": "timeline", "round_index": 1}) + "\n"
            )
        assert scan_trace_progress(path) == 2


class TestSnapshot:
    def test_fresh_campaign_is_all_pending(self, manifest):
        snapshot = snapshot_campaign(manifest, now=100.0)
        assert snapshot.name == "tiny"
        assert len(snapshot.runs) == 4
        assert snapshot.counts == {"pending": 4}
        assert not snapshot.finished
        assert snapshot.total_attempts == 0
        run = snapshot.runs[0]
        assert run.rounds_done == 0
        assert run.rounds_planned == 5
        assert run.elapsed_s is None
        assert run.throughput_rps is None
        assert run.eta_s is None

    def test_running_run_reports_throughput_and_eta(self, manifest):
        write_trace(manifest, RUN_A, rounds=2)
        manifest.write_status(
            RUN_A, STATUS_RUNNING, attempts=1, started_at=100.0
        )
        snapshot = snapshot_campaign(manifest, now=104.0)
        run = {r.run_id: r for r in snapshot.runs}[RUN_A]
        assert run.status == STATUS_RUNNING
        assert run.rounds_done == 2
        assert run.elapsed_s == pytest.approx(4.0)
        assert run.throughput_rps == pytest.approx(0.5)
        assert run.eta_s == pytest.approx(6.0)  # 3 rounds left at 0.5 r/s

    def test_terminal_runs_freeze_elapsed_and_zero_eta(self, manifest):
        manifest.write_status(
            RUN_A, STATUS_DONE, attempts=2,
            started_at=10.0, finished_at=25.0,
        )
        manifest.write_status(
            RUN_B, STATUS_FAILED, attempts=3, detail="boom",
            started_at=10.0, finished_at=12.0,
        )
        snapshot = snapshot_campaign(manifest, now=9999.0)
        runs = {r.run_id: r for r in snapshot.runs}
        assert runs[RUN_A].elapsed_s == pytest.approx(15.0)
        assert runs[RUN_A].eta_s == 0.0
        assert runs[RUN_B].detail == "boom"
        assert runs[RUN_B].attempts == 3
        assert not snapshot.finished  # two runs are still pending

    def test_finished_once_every_run_is_terminal(self, manifest):
        for spec in manifest.runs:
            manifest.write_status(spec.run_id, STATUS_DONE, attempts=1)
        assert snapshot_campaign(manifest, now=0.0).finished


class TestRendering:
    def test_frame_lists_every_run_with_progress_bar(self, manifest):
        write_trace(manifest, RUN_A, rounds=2)
        manifest.write_status(
            RUN_A, STATUS_RUNNING, attempts=1, started_at=100.0
        )
        frame = render_snapshot(snapshot_campaign(manifest, now=104.0))
        assert "campaign tiny" in frame
        assert "attempts=1" in frame
        for spec in manifest.runs:
            assert spec.run_id in frame
        assert "[########............] 2/5" in frame
        assert "0.50" in frame  # rounds per second

    def test_failure_note_is_shown(self, manifest):
        manifest.write_status(
            RUN_B, STATUS_FAILED, attempts=2, detail="attempt 2: boom"
        )
        frame = render_snapshot(snapshot_campaign(manifest, now=0.0))
        assert "attempt 2: boom" in frame

    def test_rendering_is_deterministic(self, manifest):
        snapshot = snapshot_campaign(manifest, now=50.0)
        assert render_snapshot(snapshot) == render_snapshot(snapshot)


class TestFormattingHelpers:
    def test_fmt_duration(self):
        assert _fmt_duration(None) == "—"
        assert _fmt_duration(5.04) == "5.0s"
        assert _fmt_duration(65.0) == "1m05s"
        assert _fmt_duration(3720.0) == "1h02m"

    def test_bar(self):
        assert _bar(0, 5, width=10) == ".........."
        assert _bar(5, 5, width=10) == "##########"
        assert _bar(2, 5, width=10) == "####......"
        assert _bar(0, 0, width=4) == "    "


class TestStatusCommand:
    def test_status_renders_single_frame_and_returns_zero(
        self, manifest, capsys
    ):
        write_trace(manifest, RUN_A, rounds=2)
        manifest.write_status(
            RUN_A, STATUS_RUNNING, attempts=1, started_at=100.0
        )
        assert main(["campaign", "status", manifest.root]) == 0
        out = capsys.readouterr().out
        assert out.count("campaign tiny") == 1
        assert "[########............] 2/5" in out


class TestWatchLoop:
    def test_loop_exits_when_campaign_finishes(self, manifest):
        for spec in manifest.runs:
            manifest.write_status(spec.run_id, STATUS_DONE, attempts=1)
        stream = io.StringIO()
        assert watch(manifest.root, interval_s=0.01, stream=stream) == 0
        assert stream.getvalue().count("campaign tiny") == 1
