"""Structured observability for federated training runs.

The training loop is instrumented against this package: every
observable step emits a typed event (:mod:`repro.obs.events`) through
a pluggable sink (:mod:`repro.obs.sinks`), and every stage runs inside
a timing span (:mod:`repro.obs.spans`) whose start/end events go to
the same sink. That trace is the one record of a run: counts are
event counts, stage times are span self-times. A :class:`RunObserver`
is the single optional handle the trainer and the execution backends
accept.

Tracing defaults off (events are discarded) and is strictly
read-only: a traced run's :class:`~repro.fl.history.TrainingHistory`
is bitwise identical to the untraced run's.

Typical use::

    from repro.obs import CollectingSink, RunObserver, self_time_rows

    observer = RunObserver(sink=CollectingSink())
    history = FederatedTrainer(..., observer=observer).run()
    for name, count, total_s, self_s, *_ in self_time_rows(observer.sink.events):
        print(f"{name:22s} {count:4d} {total_s:8.3f}s {self_s:8.3f}s")

From the CLI the same is ``python -m repro run helcfl --trace
run.jsonl --report``; validate a trace with ``python -m repro.obs.validate
run.jsonl``. Analyze a finished trace with ``python -m repro
trace-report run.jsonl`` (or diff two runs with ``python -m repro
trace-compare``); the underlying analytics live in
:mod:`repro.obs.analysis`.
"""

from repro.obs.analysis import (
    LoadedTrace,
    RunStats,
    SpanSummary,
    compare_stats,
    compute_run_stats,
    load_trace,
    render_report,
    self_time_rows,
    split_runs,
    summarize_spans,
)
from repro.obs.chrome_trace import chrome_trace_document, render_chrome_trace
from repro.obs.events import (
    EVENT_TYPES,
    AggregationEvent,
    BatteryDropEvent,
    ClientDroppedEvent,
    DeviceRoundEvent,
    EvalEvent,
    Event,
    FaultInjectedEvent,
    FrequencyAssignmentEvent,
    RoundDegradedEvent,
    RunStopEvent,
    SelectionEvent,
    SpanEndEvent,
    SpanStartEvent,
    StopReason,
    TimelineEvent,
    WorkerResourceEvent,
)
from repro.obs.observer import RunObserver, configure_logging
from repro.obs.spans import (
    NOOP_SPAN,
    NoopSpan,
    Span,
    TaskSample,
    begin_task_sample,
    end_task_sample,
)
from repro.obs.schema import (
    EVENT_SCHEMAS,
    validate_event,
    validate_trace,
    validate_trace_lines,
)
from repro.obs.sinks import (
    CollectingSink,
    EventSink,
    JsonlTraceSink,
    NullSink,
    open_trace_file,
)

__all__ = [
    "Event",
    "SelectionEvent",
    "FrequencyAssignmentEvent",
    "FaultInjectedEvent",
    "ClientDroppedEvent",
    "DeviceRoundEvent",
    "TimelineEvent",
    "BatteryDropEvent",
    "RoundDegradedEvent",
    "AggregationEvent",
    "EvalEvent",
    "SpanStartEvent",
    "SpanEndEvent",
    "WorkerResourceEvent",
    "RunStopEvent",
    "StopReason",
    "EVENT_TYPES",
    "Span",
    "NoopSpan",
    "NOOP_SPAN",
    "TaskSample",
    "begin_task_sample",
    "end_task_sample",
    "RunObserver",
    "configure_logging",
    "EVENT_SCHEMAS",
    "validate_event",
    "validate_trace",
    "validate_trace_lines",
    "EventSink",
    "NullSink",
    "CollectingSink",
    "JsonlTraceSink",
    "open_trace_file",
    "LoadedTrace",
    "RunStats",
    "SpanSummary",
    "load_trace",
    "split_runs",
    "compute_run_stats",
    "summarize_spans",
    "self_time_rows",
    "render_report",
    "compare_stats",
    "chrome_trace_document",
    "render_chrome_trace",
]
