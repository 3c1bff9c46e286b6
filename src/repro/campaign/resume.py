"""Resume-from-trace: rebuild trainer state out of a partial trace.

This closes the loop on the analysis loader's torn-tail tolerance
(:mod:`repro.obs.analysis.loader`): a run killed mid-round leaves a
``.jsonl`` trace whose final line may be torn, but everything before
it is whole — and because training is bitwise deterministic, a fresh
trainer replayed to the trace's last *certain* round carries exactly
the state the killed run had there.

Which round is certain? Events are emitted strictly in round order,
so the presence of *any* round-``m`` event proves every round up to
``m - 1`` completed — including its stop checks (a run that stopped at
``r`` never emits round ``r + 1``). Round ``m`` itself may have been
cut anywhere, so it is always re-executed:
:func:`resumable_round` = ``m - 1``.

The same bound guards checkpoints: an on-disk checkpoint at a round
*later* than the resumable bound was written before that round's stop
checks ran, and resuming from it could overrun an early stop — the
campaign runner discards it and reconstructs from the trace instead.

Replay is verified, not trusted: the replayed rounds must reproduce
the trace's selection and timeline values exactly, otherwise the trace
belongs to a different configuration and resuming would silently mix
runs — a :class:`~repro.errors.SerializationError` is raised.
"""

from __future__ import annotations

import os
from typing import Callable, Optional

from repro import wire
from repro.campaign.watch import line_round
from repro.errors import SerializationError
from repro.fl.checkpoint import TrainerCheckpoint
from repro.fl.trainer import FederatedTrainer
from repro.obs.analysis.loader import LoadedTrace

__all__ = ["resumable_round", "truncate_trace", "reconstruct_checkpoint"]


def resumable_round(trace: LoadedTrace) -> int:
    """The last round of ``trace`` that is certainly complete.

    ``max(round_index) - 1``: the newest round may have been cut
    mid-flight (and even a finished round's stop checks may not have
    run), so it is never trusted. Returns 0 when nothing is resumable
    (resume then means start fresh).
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


def _trace_round_facts(trace: LoadedTrace, up_to: int) -> dict:
    """Per-round (selection, timeline) facts for rounds ``<= up_to``."""
    facts: dict = {}
    for event in trace.events:
        if not 1 <= event.round_index <= up_to:
            continue
        entry = facts.setdefault(event.round_index, {})
        if event.kind == "selection":
            entry["selected_ids"] = tuple(event.selected_ids)
        elif event.kind == "timeline":
            entry["round_delay"] = event.round_delay
            entry["round_energy"] = event.round_energy
            entry["cumulative_time"] = event.cumulative_time
            entry["cumulative_energy"] = event.cumulative_energy
    return facts


def reconstruct_checkpoint(
    trace: LoadedTrace,
    make_trainer: Callable[[], FederatedTrainer],
) -> Optional[TrainerCheckpoint]:
    """Rebuild the killed run's state by deterministic replay.

    A fresh trainer (tracing off, identical configuration) replays up
    to :func:`resumable_round` and its ``last_checkpoint`` is the
    reconstruction. Every replayed round is cross-checked against the
    trace's selection and timeline events — exact equality, because
    the simulation is bitwise deterministic.

    Args:
        trace: the loaded partial trace.
        make_trainer: zero-argument factory building the run's trainer
            exactly as the original was built (same settings, seeds,
            strategy, faults, backend semantics).

    Returns:
        The reconstructed checkpoint, or ``None`` when the trace holds
        no certainly-complete round (caller starts fresh).

    Raises:
        SerializationError: the replay diverged from the trace.
    """
    up_to = resumable_round(trace)
    if up_to < 1:
        return None
    trainer = make_trainer()
    history = trainer.run(stop_after=up_to)
    checkpoint = trainer.last_checkpoint
    if checkpoint is None or checkpoint.round_index != up_to:
        reached = None if checkpoint is None else checkpoint.round_index
        raise SerializationError(
            f"replay stopped at round {reached}, expected {up_to}: the "
            "trace belongs to a different configuration"
        )
    facts = _trace_round_facts(trace, up_to)
    for record in history.records:
        expected = facts.get(record.round_index, {})
        observed = {
            "selected_ids": record.selected_ids,
            "round_delay": record.round_delay,
            "round_energy": record.round_energy,
            "cumulative_time": record.cumulative_time,
            "cumulative_energy": record.cumulative_energy,
        }
        for key, value in expected.items():
            if observed.get(key) != value:
                raise SerializationError(
                    f"replay diverged from trace at round "
                    f"{record.round_index} ({key}: replay "
                    f"{observed.get(key)!r} vs trace {value!r})"
                )
    return checkpoint


def load_trace_for_resume(path: str) -> Optional[LoadedTrace]:
    """Load ``path`` for resumption; ``None`` when it is unusable.

    Missing or empty traces mean "start fresh"; a mid-stream-corrupt
    trace raises (the artifact is damaged beyond the torn-tail
    contract and should not silently vanish).
    """
    from repro.obs.analysis.loader import load_trace

    if not os.path.exists(path):
        return None
    trace = load_trace(path)
    if not trace.events:
        return None
    return trace
