"""Executing one campaign run inside a worker (or test) process.

:func:`execute_run` is the unit of work the pool farms out: build the
run's environment from its :class:`~repro.campaign.spec.RunSpec`,
train with tracing and checkpointing on, and leave ``history.json`` +
``stats.json`` in the run directory. With ``resume=True`` it first
tries the on-disk checkpoint (checksummed, as is the part of its
history log it covers; a corrupt one is discarded with a warning),
then falls back to deterministic trace replay
(:mod:`repro.campaign.resume`), and only then starts fresh — in every
case the finished artifacts are bitwise identical to an uninterrupted
run's, which is what the campaign-level aggregate compares on.
"""

from __future__ import annotations

import os
import warnings
from typing import Optional

from repro.campaign.resume import (
    load_trace_for_resume,
    reconstruct_checkpoint,
    resumable_round,
    truncate_trace,
)
from repro.campaign.spec import RunSpec
from repro.errors import SerializationError
from repro.experiments.runner import build_environment, build_trainer
from repro.fl.checkpoint import TrainerCheckpoint, load_checkpoint
from repro.fl.execution import open_backend
from repro.obs import JsonlTraceSink, RunObserver, configure_logging

__all__ = ["execute_run"]

TRACE_FILE = "trace.jsonl"
CHECKPOINT_FILE = "checkpoint.json"
HISTORY_FILE = "history.json"
STATS_FILE = "stats.json"


def _resume_checkpoint(
    run: RunSpec, trace_path: str, checkpoint_path: str, make_replay_trainer
) -> Optional[TrainerCheckpoint]:
    """Pick the state to resume from: checkpoint, replay, or fresh.

    The trace bounds what is trustworthy: a checkpoint written *after*
    the last certainly-complete round predates that round's stop
    checks and could overrun an early stop, so it is discarded in
    favour of replay (see :mod:`repro.campaign.resume`).
    """
    trace = load_trace_for_resume(trace_path)
    if trace is None:
        return None
    safe_round = resumable_round(trace)
    if safe_round < 1:
        return None
    checkpoint = None
    if os.path.exists(checkpoint_path):
        try:
            loaded = load_checkpoint(checkpoint_path)
            loaded.history  # read and verify its history log now
            checkpoint = loaded
        except SerializationError as exc:
            warnings.warn(
                f"run {run.run_id}: checkpoint is unreadable ({exc}); "
                "falling back to trace reconstruction",
                RuntimeWarning,
                stacklevel=2,
            )
    if checkpoint is not None and checkpoint.round_index > safe_round:
        checkpoint = None
    if checkpoint is None:
        try:
            checkpoint = reconstruct_checkpoint(trace, make_replay_trainer)
        except SerializationError as exc:
            warnings.warn(
                f"run {run.run_id}: trace reconstruction failed ({exc}); "
                "restarting the run from scratch",
                RuntimeWarning,
                stacklevel=2,
            )
            return None
    return checkpoint


def execute_run(
    run: RunSpec,
    run_dir: str,
    resume: bool = False,
    log_level: Optional[str] = None,
    spans: bool = True,
    parent_span_id: str = "",
) -> dict:
    """Execute one campaign run to completion in this process.

    Args:
        run: the fully resolved run spec.
        run_dir: the run's artifact directory (created if missing).
        resume: continue from the run directory's checkpoint/trace
            instead of starting over.
        log_level: when given, (re)configure the ``repro`` logger at
            this level — pool workers pass the parent's level through
            so worker-side warnings reach stderr.
        spans: emit hierarchical span events into the run trace
            (``False`` compiles them to no-ops; the artifacts stay
            bitwise identical either way).
        parent_span_id: span id of the enclosing campaign-side span,
            recorded as the run span's parent for cross-process trees.
    """
    if log_level is not None:
        configure_logging(log_level)
    os.makedirs(run_dir, exist_ok=True)
    trace_path = os.path.join(run_dir, TRACE_FILE)
    checkpoint_path = os.path.join(run_dir, CHECKPOINT_FILE)
    settings = run.build_settings()
    environment = build_environment(settings, run.iid)
    config_overrides = dict(run.trainer_overrides)
    config_overrides["checkpoint_every"] = run.checkpoint_every

    def make_replay_trainer():
        # Replay runs serial with tracing off: backends are bitwise
        # identical, so serial replay reconstructs pooled runs too.
        return build_trainer(
            run.strategy,
            settings,
            environment,
            config_overrides=config_overrides,
            faults=run.build_fault_plan(),
        )

    checkpoint = None
    if resume:
        checkpoint = _resume_checkpoint(
            run, trace_path, checkpoint_path, make_replay_trainer
        )
    if checkpoint is not None:
        truncate_trace(trace_path, checkpoint.round_index)
        handle = open(trace_path, "a", encoding="utf-8")
    else:
        handle = open(trace_path, "w", encoding="utf-8")

    observer = RunObserver(
        sink=JsonlTraceSink(handle),
        spans_enabled=spans,
        parent_span_id=parent_span_id,
    )
    try:
        with open_backend(run.backend, run.workers, log_level) as backend:
            trainer = build_trainer(
                run.strategy,
                settings,
                environment,
                config_overrides=config_overrides,
                backend=backend,
                observer=observer,
                faults=run.build_fault_plan(),
                checkpoint_path=checkpoint_path,
            )
            history = trainer.run(resume_from=checkpoint)
    finally:
        observer.close()
        handle.close()

    from repro.obs.analysis import compute_run_stats, load_trace, split_runs

    segments = split_runs(load_trace(trace_path).events)
    stats = compute_run_stats(segments[-1], source=run.run_id)
    history.save(os.path.join(run_dir, HISTORY_FILE))
    stats.save(os.path.join(run_dir, STATS_FILE))
    return {
        "run_id": run.run_id,
        "rounds": len(history),
        "resumed_from": 0 if checkpoint is None else checkpoint.round_index,
    }
