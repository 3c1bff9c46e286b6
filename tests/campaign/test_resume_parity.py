"""Crash-recovery parity: resumed runs are bitwise identical.

Every test interrupts a run at some round (by running it with
``stop_after``, exactly the state a SIGKILLed worker leaves behind,
modulo the torn trace tail tested separately), resumes it through
:func:`repro.campaign.runner.execute_run`, and compares the finished
``history.json``/``stats.json`` byte-for-byte against an uninterrupted
reference run. The trace is compared line-by-line: simulation events
must match byte-for-byte, while span/resource telemetry events (which
record real wall-clock times and pids by design) must match on every
deterministic field — same kinds, ids, parents, and positions.
"""

import dataclasses
import json
import os
from pathlib import Path

import pytest

from repro.campaign.resume import (
    load_trace_for_resume,
    reconstruct_checkpoint,
    resumable_round,
    truncate_trace,
)
from repro.campaign.runner import (
    CHECKPOINT_FILE,
    HISTORY_FILE,
    STATS_FILE,
    TRACE_FILE,
    execute_run,
)
from repro.errors import SerializationError
from repro.experiments.runner import build_environment, build_trainer
from repro.fl.checkpoint import history_path, load_checkpoint
from repro.obs import JsonlTraceSink, RunObserver
from tests.campaign.conftest import tiny_run

ARTIFACTS = (TRACE_FILE, HISTORY_FILE, STATS_FILE)


def partial_run(run, run_dir, stop_after, checkpoint_every=1):
    """Reproduce a worker's on-disk state at the moment of a kill."""
    os.makedirs(run_dir, exist_ok=True)
    settings = run.build_settings()
    environment = build_environment(settings, run.iid)
    config_overrides = dict(run.trainer_overrides)
    config_overrides["checkpoint_every"] = checkpoint_every
    handle = open(
        os.path.join(run_dir, TRACE_FILE), "w", encoding="utf-8"
    )
    observer = RunObserver(sink=JsonlTraceSink(handle))
    try:
        trainer = build_trainer(
            run.strategy,
            settings,
            environment,
            config_overrides=config_overrides,
            observer=observer,
            checkpoint_path=os.path.join(run_dir, CHECKPOINT_FILE),
        )
        trainer.run(stop_after=stop_after)
    finally:
        observer.close()
        handle.close()


SPAN_KINDS = ("span_start", "span_end", "worker_resource")
VOLATILE_SPAN_FIELDS = frozenset(
    ("t_wall", "duration_s", "pid", "rss_peak_kb", "cpu_user_s", "cpu_sys_s")
)


def canonical_trace_lines(path):
    """Trace lines with span telemetry reduced to deterministic fields.

    Simulation events stay as raw text (byte-level comparison); span
    and worker-resource events drop only their wall-clock/pid/resource
    readings, so ids, parents, names, and line positions still compare.
    """
    lines = []
    for line in path.read_text(encoding="utf-8").splitlines():
        payload = json.loads(line)
        if payload.get("event") in SPAN_KINDS:
            lines.append(
                {
                    key: value
                    for key, value in payload.items()
                    if key not in VOLATILE_SPAN_FIELDS
                }
            )
        else:
            lines.append(line)
    return lines


def assert_bitwise_identical(run_dir, reference_run_dir):
    for name in (HISTORY_FILE, STATS_FILE):
        got = (run_dir / name).read_bytes()
        want = (reference_run_dir / name).read_bytes()
        assert got == want, f"{name} differs after resume"
    got_trace = canonical_trace_lines(run_dir / TRACE_FILE)
    want_trace = canonical_trace_lines(reference_run_dir / TRACE_FILE)
    assert got_trace == want_trace, "trace.jsonl differs after resume"


class TestResumeParity:
    @pytest.mark.parametrize("cut_round", [1, 3, 5])
    def test_resume_at_round(self, cut_round, tmp_path, reference_run_dir):
        run = tiny_run()
        run_dir = tmp_path / "victim"
        partial_run(run, str(run_dir), stop_after=cut_round)
        result = execute_run(run, str(run_dir), resume=True)
        assert result["run_id"] == run.run_id
        assert_bitwise_identical(run_dir, reference_run_dir)

    @pytest.mark.parametrize("backend", ["thread", "process"])
    def test_resume_across_backends(
        self, backend, tmp_path, reference_run_dir
    ):
        # Backends are bitwise identical, so a pooled run resumed after
        # a kill must still match the serial reference byte-for-byte.
        run = dataclasses.replace(tiny_run(), backend=backend, workers=2)
        run_dir = tmp_path / "victim"
        partial_run(run, str(run_dir), stop_after=3)
        execute_run(run, str(run_dir), resume=True)
        assert_bitwise_identical(run_dir, reference_run_dir)

    def test_checkpoint_newer_than_trace_is_discarded(
        self, tmp_path, reference_run_dir
    ):
        # checkpoint_every=1 leaves the checkpoint at the cut round,
        # one past the trace's certainly-complete bound — resume must
        # replay instead of trusting it, and still end identical.
        run = tiny_run()
        run_dir = tmp_path / "victim"
        partial_run(run, str(run_dir), stop_after=3, checkpoint_every=1)
        checkpoint = load_checkpoint(str(run_dir / CHECKPOINT_FILE))
        assert checkpoint.round_index == 3
        trace = load_trace_for_resume(str(run_dir / TRACE_FILE))
        assert resumable_round(trace) == 2
        result = execute_run(run, str(run_dir), resume=True)
        assert result["resumed_from"] == 2
        assert_bitwise_identical(run_dir, reference_run_dir)

    def test_checkpoint_within_trace_bound_is_used(
        self, tmp_path, reference_run_dir
    ):
        # checkpoint_every=2 with a cut at round 3 leaves the
        # checkpoint at round 2, inside the bound — no replay needed.
        run = tiny_run(checkpoint_every=2)
        run_dir = tmp_path / "victim"
        partial_run(run, str(run_dir), stop_after=3, checkpoint_every=2)
        result = execute_run(run, str(run_dir), resume=True)
        assert result["resumed_from"] == 2
        assert_bitwise_identical(run_dir, reference_run_dir)

    def test_corrupt_checkpoint_falls_back_to_replay(
        self, tmp_path, reference_run_dir
    ):
        run = tiny_run()
        run_dir = tmp_path / "victim"
        partial_run(run, str(run_dir), stop_after=3)
        checkpoint_path = run_dir / CHECKPOINT_FILE
        payload = json.loads(checkpoint_path.read_text())
        payload["sha256"] = "0" * 64
        checkpoint_path.write_text(json.dumps(payload))
        with pytest.warns(RuntimeWarning, match="falling back to trace"):
            execute_run(run, str(run_dir), resume=True)
        assert_bitwise_identical(run_dir, reference_run_dir)

    @pytest.mark.parametrize("damage", ["tampered", "missing", "short"])
    def test_damaged_history_log_falls_back_to_replay(
        self, damage, tmp_path, reference_run_dir
    ):
        # checkpoint_every=2 cut at round 3 leaves a usable checkpoint
        # at round 2, so only its history log can send resume to replay.
        run = tiny_run(checkpoint_every=2)
        run_dir = tmp_path / "victim"
        partial_run(run, str(run_dir), stop_after=3, checkpoint_every=2)
        log = Path(history_path(str(run_dir / CHECKPOINT_FILE)))
        if damage == "tampered":
            log.write_bytes(log.read_bytes().replace(b"round_index", b"round_indeX", 1))
        elif damage == "missing":
            log.unlink()
        else:
            log.write_bytes(log.read_bytes()[:-1])
        with pytest.warns(RuntimeWarning, match="falling back to trace"):
            result = execute_run(run, str(run_dir), resume=True)
        assert result["resumed_from"] == 2
        assert_bitwise_identical(run_dir, reference_run_dir)

    def test_torn_trace_tail_is_tolerated(
        self, tmp_path, reference_run_dir
    ):
        run = tiny_run()
        run_dir = tmp_path / "victim"
        partial_run(run, str(run_dir), stop_after=3)
        with open(run_dir / TRACE_FILE, "a", encoding="utf-8") as handle:
            handle.write('{"kind": "timeline", "round_ind')
        execute_run(run, str(run_dir), resume=True)
        assert_bitwise_identical(run_dir, reference_run_dir)

    def test_resume_with_no_artifacts_starts_fresh(
        self, tmp_path, reference_run_dir
    ):
        run = tiny_run()
        run_dir = tmp_path / "victim"
        result = execute_run(run, str(run_dir), resume=True)
        assert result["resumed_from"] == 0
        assert_bitwise_identical(run_dir, reference_run_dir)


class TestResumePrimitives:
    def test_resumable_round_ignores_cut_round(self, reference_run_dir):
        trace = load_trace_for_resume(str(reference_run_dir / TRACE_FILE))
        assert resumable_round(trace) == 4  # 5 rounds ran; last untrusted

    def test_truncate_trace_preserves_bytes(self, tmp_path, reference_run_dir):
        def survives(line):
            payload = json.loads(line)
            kind = payload.get("event")
            round_index = int(payload.get("round_index", 0))
            if kind == "run_stop" or round_index > 3:
                return False
            # Run-level span closures are dropped too: the resumed
            # attempt re-emits them when it finishes.
            return not (
                round_index == 0 and kind in ("span_end", "worker_resource")
            )

        path = tmp_path / TRACE_FILE
        path.write_bytes((reference_run_dir / TRACE_FILE).read_bytes())
        truncate_trace(str(path), 3)
        original = [
            line
            for line in (reference_run_dir / TRACE_FILE).read_text().splitlines(
                keepends=True
            )
            if survives(line)
        ]
        assert path.read_text() == "".join(original)

    def test_truncate_trace_rejects_midstream_corruption(self, tmp_path):
        path = tmp_path / TRACE_FILE
        path.write_text('{"round_index": 1}\n{torn\n{"round_index": 2}\n')
        with pytest.raises(SerializationError, match="mid-stream"):
            truncate_trace(str(path), 2)

    def test_reconstruct_rejects_foreign_trace(
        self, tmp_path, reference_run_dir
    ):
        # Replaying a seed-0 trace with a seed-1 trainer must not
        # silently mix runs.
        trace = load_trace_for_resume(str(reference_run_dir / TRACE_FILE))
        foreign = tiny_run(seed=1)

        def make_trainer():
            settings = foreign.build_settings()
            environment = build_environment(settings, foreign.iid)
            return build_trainer(
                foreign.strategy,
                settings,
                environment,
                config_overrides={"checkpoint_every": 1},
            )

        with pytest.raises(SerializationError, match="diverged"):
            reconstruct_checkpoint(trace, make_trainer)

    def test_load_trace_for_resume_missing_or_empty(self, tmp_path):
        assert load_trace_for_resume(str(tmp_path / "absent.jsonl")) is None
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        assert load_trace_for_resume(str(empty)) is None
