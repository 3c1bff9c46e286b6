"""Reconstruct typed events from a JSONL trace.

The trace format is the contract :mod:`repro.obs.schema` validates;
this module closes the loop by turning validated JSON objects back
into the frozen :mod:`repro.obs.events` dataclasses, so analytics code
works with the same types the trainer emitted.

Crash tolerance: the :class:`~repro.obs.sinks.JsonlTraceSink` builds
its lines before writing and flushes per emit call, so a crashed run's
trace is whole-line atomic — but a run killed mid-write (``kill -9``,
full disk) can still leave a torn final line, or a ``.gz`` stream cut
short. The loader therefore treats a malformed *last* line as a
truncated tail (recorded, not fatal) while a malformed line anywhere
else is a hard error.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Tuple

from repro import wire
from repro.errors import SerializationError
from repro.obs.events import Event

__all__ = ["LoadedTrace", "event_from_payload", "load_trace", "load_trace_lines"]


def event_from_payload(payload: dict) -> Event:
    """Rebuild the typed event a parsed trace object serializes.

    The payload is shape-checked against the event its ``"event"`` key
    names, so the returned dataclass round-trips:
    ``event_from_payload(e.to_dict()) == e``.

    Raises:
        SerializationError: when the payload is not a registered
            event's serialized form.
    """
    return wire.load(Event, payload, "trace event", SerializationError)


@dataclass(frozen=True)
class LoadedTrace:
    """A trace file read back as typed events.

    Attributes:
        events: the reconstructed events, in emission order.
        source: where the trace came from (path or caller label).
        truncated_tail: the raw text of a torn final line a killed run
            left behind (``""`` for a ``.gz`` stream cut short, whose
            tail text is lost); ``None`` for a cleanly written trace.
    """

    events: Tuple[Event, ...]
    source: str
    truncated_tail: Optional[str] = None

    def __len__(self) -> int:
        return len(self.events)

    def of_kind(self, kind: str) -> Tuple[Event, ...]:
        """The loaded events whose ``kind`` matches, in order."""
        return tuple(e for e in self.events if e.kind == kind)

    @property
    def complete(self) -> bool:
        """Whether the trace ends with a terminal ``run_stop`` event."""
        return bool(self.events) and self.events[-1].kind == "run_stop"


def load_trace_lines(
    lines: Iterable[str], source: str = "<lines>"
) -> LoadedTrace:
    """Load JSONL lines into a :class:`LoadedTrace`.

    Blank lines are skipped. A line that fails to parse or validate is
    tolerated only as the *final* non-blank line (a crash tail) — the
    offending text is preserved in :attr:`LoadedTrace.truncated_tail`.

    Raises:
        SerializationError: ``<source>:<line> ...`` for a malformed
            line that is not the last.
    """
    reader = wire.read_jsonl(
        lines, SerializationError, source, event_from_payload
    )
    events = tuple(event for _, event in reader)
    return LoadedTrace(events, source, reader.torn)


def load_trace(path: str) -> LoadedTrace:
    """Load a ``.jsonl`` / ``.jsonl.gz`` trace file from ``path``."""
    return load_trace_lines(path, source=str(path))
