"""Executing one campaign run inside a worker (or test) process.

:func:`execute_run` is the unit of work the pool farms out: build the
run's environment from its :class:`~repro.campaign.spec.RunSpec`,
train with tracing and checkpointing on, and leave ``history.json`` +
``stats.json`` in the run directory. With ``resume=True`` a verified
on-disk checkpoint within the trace's bound (:func:`resumable_round`)
is resumed from; in every other case the run starts fresh. Either way
the finished artifacts are bitwise identical to an uninterrupted
run's, which is what the campaign-level aggregate compares on.
"""

from __future__ import annotations

import os
import warnings
from typing import Optional

from repro import wire
from repro.campaign.spec import RunSpec
from repro.campaign.watch import line_round
from repro.errors import SerializationError
from repro.experiments.runner import build_environment, build_trainer
from repro.fl.checkpoint import TrainerCheckpoint, load_checkpoint
from repro.fl.execution import open_backend
from repro.obs import JsonlTraceSink, RunObserver, configure_logging
from repro.obs.analysis.loader import LoadedTrace, load_trace

__all__ = ["execute_run", "resumable_round", "truncate_trace"]

TRACE_FILE = "trace.jsonl"
CHECKPOINT_FILE = "checkpoint.json"
HISTORY_FILE = "history.json"
STATS_FILE = "stats.json"


def load_trace_for_resume(path: str) -> Optional[LoadedTrace]:
    """Load ``path`` for resumption; ``None`` when it is unusable.

    Missing or empty traces mean "start fresh"; a mid-stream-corrupt
    trace raises (the artifact is damaged beyond the torn-tail
    contract and should not silently vanish).
    """
    if not os.path.exists(path):
        return None
    trace = load_trace(path)
    if not trace.events:
        return None
    return trace


def resumable_round(trace: LoadedTrace) -> int:
    """The last round of ``trace`` that is certainly complete.

    Events are emitted strictly in round order, so any round-``m``
    event proves every round up to ``m - 1`` completed. Round ``m``
    itself may have been cut anywhere — a kill between its checkpoint
    save and its closing span lines leaves its trace incomplete — so
    it is never trusted: the bound is ``max(round_index) - 1``, and 0
    when nothing is resumable (resume then means start fresh).
    """
    rounds = [
        event.round_index for event in trace.events if event.round_index >= 1
    ]
    if not rounds:
        return 0
    return max(rounds) - 1


def truncate_trace(path: str, keep_round: int) -> int:
    """Cut ``path`` back to rounds ``<= keep_round``, atomically.

    Keeps the original lines byte-for-byte (so the resumed trace stays
    bitwise identical to an uninterrupted run's), dropping partial
    newest-round events, any ``run_stop`` marker, and a torn final
    line. Returns the number of lines kept.

    Raises:
        SerializationError: ``<path>:<line> ...`` for a line *before*
            the last that is malformed — torn tails are expected,
            mid-stream corruption is not.
    """

    def survives(payload: dict) -> bool:
        kind, round_index = payload.get("event"), line_round(payload)
        if kind == "run_stop" or round_index > keep_round:
            return False
        # Run-level span *closures* are re-emitted when the resumed
        # attempt finishes; only the opening span_start is kept so
        # the final trace carries exactly one start/end pair.
        return not (kind in ("span_end", "worker_resource") and round_index == 0)

    with open(path, "r", encoding="utf-8") as handle:
        lines = handle.readlines()
    kept = [
        lines[number - 1].strip() + "\n"
        for number, keep in wire.read_jsonl(
            lines, SerializationError, path, survives
        )
        if keep
    ]
    wire.write_atomic(path, "".join(kept))
    return len(kept)


def _resume_checkpoint(
    run: RunSpec, trace_path: str, checkpoint_path: str
) -> Optional[TrainerCheckpoint]:
    """The checkpoint to resume from, or ``None`` to start fresh.

    Only a verified checkpoint (its file and the part of its history
    log it covers both check out) at or below the trace's
    :func:`resumable_round` is used. A missing trace or checkpoint, an
    unreadable checkpoint or log (which warns), or a checkpoint newer
    than the trace bound all mean a fresh start.
    """
    trace = load_trace_for_resume(trace_path)
    if trace is None or not os.path.exists(checkpoint_path):
        return None
    try:
        checkpoint = load_checkpoint(checkpoint_path)
        checkpoint.history  # read and verify its history log now
    except SerializationError as exc:
        warnings.warn(
            f"run {run.run_id}: checkpoint is unreadable ({exc}); "
            "restarting the run from scratch",
            RuntimeWarning,
            stacklevel=2,
        )
        return None
    if checkpoint.round_index > resumable_round(trace):
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
        resume: continue from the run directory's checkpoint when
            it is verified and within the trace's bound, instead of
            starting over.
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

    checkpoint = None
    if resume:
        checkpoint = _resume_checkpoint(run, trace_path, checkpoint_path)
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

    from repro.obs.analysis import compute_run_stats, split_runs

    segments = split_runs(load_trace(trace_path).events)
    stats = compute_run_stats(segments[-1], source=run.run_id)
    history.save(os.path.join(run_dir, HISTORY_FILE))
    stats.save(os.path.join(run_dir, STATS_FILE))
    return {
        "run_id": run.run_id,
        "rounds": len(history),
        "resumed_from": 0 if checkpoint is None else checkpoint.round_index,
    }
