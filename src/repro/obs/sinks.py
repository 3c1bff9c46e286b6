"""Event sinks: where the trace stream goes.

An :class:`EventSink` receives every :class:`~repro.obs.events.Event`
a run emits, in order — one at a time through :meth:`EventSink.emit`,
or as a column batch through :meth:`EventSink.emit_batch` (a round's
per-device lines). Three implementations cover the standard needs:

* :class:`NullSink` — tracing off (the default); every emit is a no-op;
* :class:`CollectingSink` — keeps events in memory (tests, notebooks);
* :class:`JsonlTraceSink` — streams one JSON object per event to a
  file, each line written by its event class's compiled
  :class:`~repro.wire.LineTemplate`, flushed per emit call — an event
  or a batch — so a crashed run still leaves a usable trace (validate
  it with ``python -m repro.obs.validate``). Use it as a context
  manager (or close it in ``try``/``finally``) so the stream is
  flushed and closed even when a round raises mid-trace — chaos runs
  rely on never losing the tail of a trace.

Sinks only observe: they must never mutate events or feed anything
back into the training loop.
"""

from __future__ import annotations

import gzip
import os
from typing import List, Sequence, Tuple, Union

from repro import wire
from repro.errors import SerializationError
from repro.obs.events import Event

__all__ = [
    "EventSink",
    "NullSink",
    "CollectingSink",
    "JsonlTraceSink",
    "open_trace_file",
]


def open_trace_file(path, mode: str = "r"):
    """Open a JSONL trace path as a text stream, gzip-aware.

    Paths ending in ``.gz`` are transparently (de)compressed — chaos
    matrices produce large traces, and every trace consumer
    (:class:`JsonlTraceSink`, the validator, the analysis loader)
    shares this suffix convention.

    Args:
        path: the trace file path (``str``, ``bytes`` or path-like).
        mode: ``"r"`` or ``"w"`` (text mode is implied).
    """
    if mode not in ("r", "w"):
        raise SerializationError(
            f"trace files open in 'r' or 'w' mode only, got {mode!r}"
        )
    if os.fsdecode(path).endswith(".gz"):
        return gzip.open(path, mode + "t", encoding="utf-8")
    return open(path, mode, encoding="utf-8")


class EventSink:
    """Protocol for trace-event consumers.

    Subclasses implement :meth:`emit`; :meth:`emit_batch` and
    :meth:`close` are optional, and ``close`` must be idempotent.
    """

    def emit(self, event: Event) -> None:
        """Consume one event (called in emission order)."""
        raise NotImplementedError

    def emit_batch(self, rows: int, parts: Sequence[Tuple[type, dict, dict]]) -> None:
        """Consume ``rows`` rows of events given as columns.

        Each row holds one event per ``(event class, scalars, columns)``
        part, in part order (:func:`repro.wire.batch_records`). The
        default builds those events and passes each to :meth:`emit`, so
        a sink sees exactly the events it would see emitted singly.
        """
        for event in wire.batch_records(rows, parts):
            self.emit(event)

    def close(self) -> None:
        """Release any resources (idempotent; no-op by default)."""

    def __enter__(self) -> EventSink:
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class NullSink(EventSink):
    """Discard every event — the tracing-off default."""

    def emit(self, event: Event) -> None:
        """Drop the event."""

    def emit_batch(self, rows, parts) -> None:
        """Drop the batch without building its events."""


class CollectingSink(EventSink):
    """Accumulate events in an in-memory list (``sink.events``)."""

    def __init__(self) -> None:
        self.events: List[Event] = []

    def emit(self, event: Event) -> None:
        """Append the event to :attr:`events`."""
        self.events.append(event)

    def of_kind(self, kind: str) -> List[Event]:
        """Collected events whose ``kind`` matches."""
        return [e for e in self.events if e.kind == kind]


class JsonlTraceSink(EventSink):
    """Stream events as JSON Lines: one JSON object per event.

    Args:
        target: a path to open for writing (``.gz`` suffixes stream
            through gzip), or an already-open text handle (e.g.
            ``sys.stdout``). The sink owns — and :meth:`close` closes —
            only handles it opened itself.
    """

    def __init__(self, target: Union[str, "object"]) -> None:
        if isinstance(target, (str, bytes)) or hasattr(target, "__fspath__"):
            self._handle = open_trace_file(target, "w")
            self._owns_handle = True
        elif hasattr(target, "write"):
            self._handle = target
            self._owns_handle = False
        else:
            raise SerializationError(
                f"JsonlTraceSink target must be a path or a writable "
                f"text handle, got {type(target).__name__}"
            )
        self.events_written = 0
        self._closing = False

    def emit(self, event: Event) -> None:
        """Write one event's line, then flush."""
        self._write(1, type(event).__line__.line, event)

    def emit_batch(self, rows, parts) -> None:
        """Write a batch's lines with one write, then flush once."""
        self._write(rows * len(parts), wire.batch_lines, rows, parts)

    def _write(self, count: int, encode, *args) -> None:
        """Write ``encode(*args)`` (``count`` lines) and flush.

        The text is built *before* anything is written, so an
        unserializable value can never leave a partial line behind;
        the flush then makes the lines durable even if the run dies
        before :meth:`close`.
        """
        if self._handle is None:
            raise SerializationError(
                "JsonlTraceSink is closed; cannot emit further events"
            )
        text = encode(*args)
        if text:
            self._handle.write(text)
            self._handle.flush()
        self.events_written += count

    def close(self) -> None:
        """Flush, then close the handle if this sink opened it.

        Idempotent, and safe mid-exception: borrowed handles (e.g.
        ``sys.stdout``) are flushed but left open for their owner.
        The handle stays writable until the final flush completes, so
        an event emitted *during* close (a final ``run_stop`` from an
        atexit path, a flush-triggered callback) is still written
        instead of being dropped; only after the flush does the sink
        reject further emits.
        """
        if self._handle is None or self._closing:
            return
        self._closing = True
        handle, owns = self._handle, self._owns_handle
        try:
            handle.flush()
        finally:
            self._handle = None
            if owns:
                handle.close()
