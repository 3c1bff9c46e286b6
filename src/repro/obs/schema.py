"""Trace-event schema: validate serialized events line by line.

The JSONL trace format is a contract: every line is one JSON object
with an ``"event"`` discriminator naming a registered
:mod:`repro.obs.events` type, carrying exactly that type's fields with
the right JSON shapes. :func:`validate_event` checks a parsed object;
:func:`validate_trace` checks a whole file (CI runs it over a traced
smoke run via ``python -m repro.obs.validate``).

Validation is strict in both directions — a missing field *and* an
unknown extra field both fail. The per-kind shapes are not written
here: they are the event dataclasses' declared field types, looked up
in :mod:`repro.wire`.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterator, Mapping

from repro import wire
from repro.errors import SerializationError
from repro.obs.events import EVENT_TYPES, Event

__all__ = ["EVENT_SCHEMAS", "validate_event", "validate_trace_lines", "validate_trace"]


class _SchemaView(Mapping):
    """:data:`EVENT_TYPES` read as ``{kind: {field: shape check}}``."""

    def __getitem__(self, kind: str) -> Dict[str, Callable[[object], bool]]:
        return {
            field.name: field.check for field in EVENT_TYPES[kind].__wire__
        }

    def __iter__(self) -> Iterator[str]:
        return iter(EVENT_TYPES)

    def __len__(self) -> int:
        return len(EVENT_TYPES)


EVENT_SCHEMAS: Mapping = _SchemaView()
"""Per-``kind`` required fields and their JSON shape checks.

A read-only view derived from the event dataclasses' declared field
types (:mod:`repro.wire`); there is nothing here to keep in step.
"""


def validate_event(payload: dict) -> str:
    """Validate one parsed trace object; return its event kind.

    Args:
        payload: a JSON-decoded trace line.

    Raises:
        SerializationError: when the object is not a dict, names an
            unknown event, misses a required field, carries an
            unexpected field, or a field has the wrong shape.
    """
    wire.check(Event, payload)
    return payload["event"]


def validate_trace(source) -> int:
    """Validate a JSONL trace — a path (``.gz``-aware) or an iterable
    of lines — and return the event count.

    Blank lines are permitted (and not counted); anything else must
    parse as JSON and pass :func:`validate_event` — a torn final line
    included.

    Raises:
        SerializationError: ``<path>:<line> ...`` for the first bad line.
    """
    reader = wire.read_jsonl(source, SerializationError, parse=validate_event)
    count = sum(1 for _ in reader)
    if reader.torn is not None:
        raise reader.torn_error
    return count


validate_trace_lines = validate_trace  # one reader takes a path or lines
