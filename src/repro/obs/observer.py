"""The run observer: the one handle a run's telemetry goes through.

:class:`RunObserver` is what the trainer and the execution backends
are instrumented against. It wraps an
:class:`~repro.obs.sinks.EventSink` and opens the timing spans
(:mod:`repro.obs.spans`) whose start/end events go to that same sink,
so the trace is the single record of what a run did and how long each
stage took: counts are event counts, stage times are span self-times
(:func:`repro.obs.analysis.self_time_rows`).

The default observer (no sink given) discards every event and opens
no-op spans, which keeps the instrumentation branch-free. Observation
is strictly read-only with respect to the run: enabling tracing
leaves the produced :class:`~repro.fl.history.TrainingHistory`
bitwise identical.
"""

from __future__ import annotations

import logging
import sys
from typing import Optional, Union

from repro.obs.events import Event
from repro.obs.sinks import EventSink, JsonlTraceSink, NullSink
from repro.obs.spans import NOOP_SPAN, Span

__all__ = ["RunObserver", "configure_logging"]


class RunObserver:
    """Pluggable observation point for one (or more) training runs.

    Args:
        sink: event destination; ``None`` discards events (tracing
            off, the default).
        spans_enabled: whether :meth:`span` produces live spans
            (requires tracing too); False compiles every span to the
            shared no-op.
        parent_span_id: span id of the enclosing span in a *parent
            process* (the campaign span when a pool worker runs this
            trainer); becomes the run span's ``parent_id``.
    """

    def __init__(
        self,
        sink: Optional[EventSink] = None,
        spans_enabled: bool = True,
        parent_span_id: str = "",
    ) -> None:
        self.sink = sink if sink is not None else NullSink()
        self.spans_enabled = bool(spans_enabled)
        self.parent_span_id = str(parent_span_id)

    @classmethod
    def to_path(cls, path: str, spans_enabled: bool = True) -> RunObserver:
        """An observer streaming a JSONL trace to ``path``."""
        return cls(sink=JsonlTraceSink(path), spans_enabled=spans_enabled)

    @property
    def tracing(self) -> bool:
        """Whether events actually go anywhere (sink is not null)."""
        return not isinstance(self.sink, NullSink)

    @property
    def spans_active(self) -> bool:
        """Whether :meth:`span` returns live spans right now."""
        return self.spans_enabled and self.tracing

    def span(
        self,
        name: str,
        span_id: Optional[str] = None,
        parent_id: str = "",
        round_index: int = 0,
        resources: bool = False,
        emit_start: bool = True,
    ):
        """Open a hierarchical timing span (see :mod:`repro.obs.spans`).

        Returns the shared no-op span when tracing or spans are off,
        so call sites stay branch-free and results stay bitwise
        identical. See :class:`repro.obs.spans.Span` for the
        parameters; ``span_id`` defaults to ``name``.
        """
        if not self.spans_active:
            return NOOP_SPAN
        return Span(
            self,
            name,
            span_id if span_id is not None else name,
            parent_id=parent_id,
            round_index=round_index,
            resources=resources,
            emit_start=emit_start,
        )

    def emit(self, event: Event) -> None:
        """Forward one event to the sink."""
        self.sink.emit(event)

    def emit_batch(self, rows: int, parts) -> None:
        """Forward a column batch to the sink (see
        :meth:`repro.obs.sinks.EventSink.emit_batch`)."""
        self.sink.emit_batch(rows, parts)

    def close(self) -> None:
        """Close the sink (idempotent)."""
        self.sink.close()

    def __enter__(self) -> RunObserver:
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def configure_logging(
    level: Union[int, str] = "INFO", stream=None
) -> logging.Logger:
    """Configure the library's ``repro`` logger and return it.

    Attaches a single stream handler (stderr by default) the first
    time it is called; later calls only adjust the level, so the CLI
    and tests can call it repeatedly without duplicating output.

    Args:
        level: a :mod:`logging` level name (``"DEBUG"``, ``"INFO"``,
            ...) or numeric level.
        stream: destination stream; ``None`` uses ``sys.stderr``.
    """
    logger = logging.getLogger("repro")
    if isinstance(level, str):
        level = logging.getLevelName(level.upper())
    logger.setLevel(level)
    if not logger.handlers:
        handler = logging.StreamHandler(stream or sys.stderr)
        handler.setFormatter(
            logging.Formatter("%(asctime)s %(name)s %(levelname)s %(message)s")
        )
        logger.addHandler(handler)
    return logger
