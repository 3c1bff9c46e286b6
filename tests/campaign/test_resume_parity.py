"""Crash-recovery parity: resumed runs are bitwise identical.

Every test kills a run at the start of some round (with
:func:`tests.kill.run_killed_after`, which leaves the checkpoint and
trace a SIGKILLed worker leaves behind, modulo the torn trace tail
tested separately), resumes it through
:func:`repro.campaign.runner.execute_run`, and compares the finished
``history.json``/``stats.json`` byte-for-byte against an uninterrupted
reference run. The trace is compared line-by-line: simulation events
must match byte-for-byte, while span/resource telemetry events (which
record real wall-clock times and pids by design) must match on every
deterministic field — same kinds, ids, parents, and positions.

The kill-point matrix covers runs that stop early by plateau and by
deadline as well as one that runs out its rounds: a checkpoint must
hold the round's stop-decision state, or a resumed run overruns (or
misses) the stop an uninterrupted one takes.
"""

import dataclasses
import json
import os
from pathlib import Path

import pytest

from repro.campaign.runner import (
    CHECKPOINT_FILE,
    HISTORY_FILE,
    STATS_FILE,
    TRACE_FILE,
    execute_run,
    load_trace_for_resume,
    resumable_round,
    truncate_trace,
)
from repro.errors import SerializationError
from repro.experiments.runner import build_environment, build_trainer
from repro.fl.checkpoint import history_path, load_checkpoint
from repro.obs import JsonlTraceSink, RunObserver
from tests.campaign.conftest import tiny_run
from tests.kill import run_killed_after

ARTIFACTS = (TRACE_FILE, HISTORY_FILE, STATS_FILE)


def partial_run(run, run_dir, killed_after, checkpoint_every=1):
    """Reproduce a worker's on-disk state when it is killed at the
    start of round ``killed_after + 1``."""
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
        run_killed_after(trainer, killed_after)
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


# The tiny run's trainer and settings overrides for each way a run
# ends, and the round it ends at.
STOP_VARIANTS = {
    # Every round evaluates; the loss stops improving by 0.05 after
    # round 2 and patience runs out at round 4 of 5.
    "plateau": (
        {"convergence_patience": 2, "convergence_min_delta": 0.05},
        {"eval_every": 1},
        4,
    ),
    "deadline": ({"deadline_s": 4.5}, {}, 3),
    "no_early_stop": ({}, {}, 5),
}
KILL_POINTS = [
    (variant, killed_after)
    for variant, (_, _, last_round) in STOP_VARIANTS.items()
    for killed_after in range(1, last_round)
]


def stop_variant_run(variant, checkpoint_every=1):
    trainer_overrides, settings, _ = STOP_VARIANTS[variant]
    return dataclasses.replace(
        tiny_run(checkpoint_every=checkpoint_every, **settings),
        trainer_overrides=trainer_overrides,
    )


@pytest.fixture(scope="module")
def stop_variant_references(tmp_path_factory):
    """Each stop variant's uninterrupted run directory."""
    references = {}
    for variant, (_, _, last_round) in STOP_VARIANTS.items():
        run_dir = tmp_path_factory.mktemp(variant) / "run"
        result = execute_run(stop_variant_run(variant), str(run_dir))
        assert result["rounds"] == last_round
        references[variant] = run_dir
    return references


class TestResumeParity:
    @pytest.mark.parametrize("checkpoint_every", [1, 2])
    @pytest.mark.parametrize("variant, killed_after", KILL_POINTS)
    def test_resume_at_round(
        self,
        variant,
        killed_after,
        checkpoint_every,
        tmp_path,
        stop_variant_references,
    ):
        run = stop_variant_run(variant, checkpoint_every)
        run_dir = tmp_path / "victim"
        partial_run(run, str(run_dir), killed_after, checkpoint_every)
        result = execute_run(run, str(run_dir), resume=True)
        assert result["run_id"] == run.run_id
        # The kill leaves the last cadence round's checkpoint within
        # the trace bound, so resume must use it, not start over.
        assert result["resumed_from"] == killed_after - killed_after % checkpoint_every
        assert_bitwise_identical(run_dir, stop_variant_references[variant])

    @pytest.mark.parametrize("backend", ["thread", "process"])
    def test_resume_across_backends(
        self, backend, tmp_path, reference_run_dir
    ):
        # Backends are bitwise identical, so a pooled run resumed after
        # a kill must still match the serial reference byte-for-byte.
        run = dataclasses.replace(tiny_run(), backend=backend, workers=2)
        run_dir = tmp_path / "victim"
        partial_run(run, str(run_dir), 3)
        execute_run(run, str(run_dir), resume=True)
        assert_bitwise_identical(run_dir, reference_run_dir)

    def test_checkpoint_newer_than_trace_is_discarded(
        self, tmp_path, reference_run_dir
    ):
        # A kill between round 3's checkpoint save and its closing
        # trace lines leaves a trace whose last round is 3, so the
        # round-3 checkpoint is one past the trace's certainly-complete
        # bound — resume must start over instead of trusting it.
        run = tiny_run()
        run_dir = tmp_path / "victim"
        partial_run(run, str(run_dir), 3)
        truncate_trace(str(run_dir / TRACE_FILE), 3)
        checkpoint = load_checkpoint(str(run_dir / CHECKPOINT_FILE))
        assert checkpoint.round_index == 3
        trace = load_trace_for_resume(str(run_dir / TRACE_FILE))
        assert resumable_round(trace) == 2
        result = execute_run(run, str(run_dir), resume=True)
        assert result["resumed_from"] == 0
        assert_bitwise_identical(run_dir, reference_run_dir)

    def test_checkpoint_within_trace_bound_is_used(
        self, tmp_path, reference_run_dir
    ):
        # checkpoint_every=2 with a kill in round 4 leaves the
        # checkpoint at round 2, inside the bound.
        run = tiny_run(checkpoint_every=2)
        run_dir = tmp_path / "victim"
        partial_run(run, str(run_dir), 3, checkpoint_every=2)
        result = execute_run(run, str(run_dir), resume=True)
        assert result["resumed_from"] == 2
        assert_bitwise_identical(run_dir, reference_run_dir)

    def test_corrupt_checkpoint_restarts_the_run(
        self, tmp_path, reference_run_dir
    ):
        run = tiny_run()
        run_dir = tmp_path / "victim"
        partial_run(run, str(run_dir), 3)
        checkpoint_path = run_dir / CHECKPOINT_FILE
        payload = json.loads(checkpoint_path.read_text())
        payload["sha256"] = "0" * 64
        checkpoint_path.write_text(json.dumps(payload))
        with pytest.warns(RuntimeWarning, match="restarting the run"):
            result = execute_run(run, str(run_dir), resume=True)
        assert result["resumed_from"] == 0
        assert_bitwise_identical(run_dir, reference_run_dir)

    @pytest.mark.parametrize("damage", ["tampered", "missing", "short"])
    def test_damaged_history_log_restarts_the_run(
        self, damage, tmp_path, reference_run_dir
    ):
        # checkpoint_every=2 with a kill in round 4 leaves a usable
        # checkpoint at round 2, so only its history log can make
        # resume start over.
        run = tiny_run(checkpoint_every=2)
        run_dir = tmp_path / "victim"
        partial_run(run, str(run_dir), 3, checkpoint_every=2)
        log = Path(history_path(str(run_dir / CHECKPOINT_FILE)))
        if damage == "tampered":
            log.write_bytes(log.read_bytes().replace(b"round_index", b"round_indeX", 1))
        elif damage == "missing":
            log.unlink()
        else:
            log.write_bytes(log.read_bytes()[:-1])
        with pytest.warns(RuntimeWarning, match="restarting the run"):
            result = execute_run(run, str(run_dir), resume=True)
        assert result["resumed_from"] == 0
        assert_bitwise_identical(run_dir, reference_run_dir)

    def test_torn_trace_tail_is_tolerated(
        self, tmp_path, reference_run_dir
    ):
        run = tiny_run()
        run_dir = tmp_path / "victim"
        partial_run(run, str(run_dir), 3)
        with open(run_dir / TRACE_FILE, "a", encoding="utf-8") as handle:
            handle.write('{"kind": "timeline", "round_ind')
        result = execute_run(run, str(run_dir), resume=True)
        assert result["resumed_from"] == 3
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

    def test_load_trace_for_resume_missing_or_empty(self, tmp_path):
        assert load_trace_for_resume(str(tmp_path / "absent.jsonl")) is None
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        assert load_trace_for_resume(str(empty)) is None
