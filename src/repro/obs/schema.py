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

import json
from typing import Callable, Dict, Iterable, Iterator, Mapping

from repro import wire
from repro.errors import SerializationError
from repro.obs.events import EVENT_TYPES

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
    if not isinstance(payload, dict):
        raise SerializationError(
            f"trace event must be a JSON object, got {type(payload).__name__}"
        )
    kind = payload.get("event")
    if not isinstance(kind, str) or kind not in EVENT_TYPES:
        raise SerializationError(f"unknown trace event kind {kind!r}")
    wire.check(EVENT_TYPES[kind], payload, also=("event",))
    return kind


def validate_trace_lines(lines: Iterable[str]) -> int:
    """Validate an iterable of JSONL lines; return the event count.

    Blank lines are permitted (and not counted); anything else must
    parse as JSON and pass :func:`validate_event`.
    """
    count = 0
    for line_number, line in enumerate(lines, start=1):
        text = line.strip()
        if not text:
            continue
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as exc:
            raise SerializationError(
                f"trace line {line_number} is not valid JSON: {exc}"
            ) from exc
        try:
            validate_event(payload)
        except SerializationError as exc:
            raise SerializationError(f"trace line {line_number}: {exc}") from exc
        count += 1
    return count


def validate_trace(path: str) -> int:
    """Validate a JSONL trace file (``.gz``-aware); return the event count."""
    from repro.obs.sinks import open_trace_file

    with open_trace_file(path) as handle:
        return validate_trace_lines(handle)
