"""Hierarchical timing spans over the event trace.

A *span* is a named wall-clock interval in the campaign → run → round
→ stage → per-client-task hierarchy. Opening one emits a
:class:`~repro.obs.events.SpanStartEvent` into the run's trace;
closing it emits the matching :class:`~repro.obs.events.SpanEndEvent`
(optionally preceded by a sampled
:class:`~repro.obs.events.WorkerResourceEvent`). Span ids are
deterministic path-like strings (``"run"``, ``"round-3"``,
``"round-3/selection"``, ``"round-3/task-17"``), so the span *tree* of
two identical runs is identical — only the wall-clock annotations
differ — and a parent id is a plain string that crosses process
boundaries in a pickle without any registry.

Two propagation shapes exist:

* **in-process spans** — :meth:`repro.obs.observer.RunObserver.span`
  returns a live :class:`Span` (or the shared no-op when tracing or
  spans are off: zero branches in the hot path, bitwise-identical
  results);
* **cross-process task spans** — the worker brackets the chunk of
  clients it trains in one call with :func:`begin_task_sample` /
  :func:`end_task_sample` and ships the picklable :class:`TaskSample`
  back, and the parent splits every chunk into equal per-client shares
  and emits one span per client, in deterministic selection order, as
  one column batch (:func:`task_span_batch`; the JSONL sink is not
  thread-safe, so workers never write the trace themselves).

This module is the sanctioned home for the wall-clock and
``getrusage`` reads the spans need: span timing measures *our* code,
never the simulated timeline, and nothing here feeds back into
training (the byte-pinned traces in
``tests/integration/test_trace_bytes_pinned.py`` hold it to that).
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np

try:  # pragma: no cover - resource is stdlib on every POSIX platform
    import resource as _resource
except ImportError:  # pragma: no cover - non-POSIX fallback
    _resource = None

from repro.obs.events import SpanEndEvent, SpanStartEvent, WorkerResourceEvent

__all__ = [
    "Span",
    "NoopSpan",
    "NOOP_SPAN",
    "TaskSample",
    "begin_task_sample",
    "end_task_sample",
    "task_span_batch",
    "rusage_snapshot",
    "round_span_id",
]


def round_span_id(round_index: int, stage: str = "") -> str:
    """The id of round ``round_index``'s span, or of ``stage`` inside it:
    the one place the ``round-<j>[/<stage>]`` format is written."""
    if stage:
        return f"round-{round_index}/{stage}"
    return f"round-{round_index}"


def rusage_snapshot() -> Tuple[float, float, float]:
    """Sample this process: ``(rss_peak_kb, cpu_user_s, cpu_sys_s)``.

    ``ru_maxrss`` is the *lifetime* peak resident set size (kilobytes
    on Linux). On platforms without :mod:`resource` every value is 0.0
    — spans still work, only the resource annotations go dark.
    """
    if _resource is None:  # pragma: no cover - non-POSIX fallback
        return (0.0, 0.0, 0.0)
    usage = _resource.getrusage(_resource.RUSAGE_SELF)
    return (float(usage.ru_maxrss), usage.ru_utime, usage.ru_stime)


class Span:
    """One live span bound to an observer; emits its own events.

    Build spans through
    :meth:`repro.obs.observer.RunObserver.span` — that is where the
    spans-off no-op short-circuit lives. Use as a context manager, or
    call :meth:`end` on every exit path (``finally``); REP013 checks
    the discipline statically.

    Args:
        observer: the :class:`~repro.obs.observer.RunObserver` whose
            sink receives the span events.
        name: stage name (``"selection"``, ``"round"``, ...).
        span_id: deterministic id, unique within the run.
        parent_id: the enclosing span's id (``""`` for a root).
        round_index: owning FL round (0 for run-level spans).
        resources: also emit a :class:`WorkerResourceEvent` with this
            process's usage delta when the span ends.
        emit_start: emit the :class:`SpanStartEvent` now. Pass False
            when resuming a run whose earlier attempt already wrote
            the start event (the trace must keep exactly one).
    """

    __slots__ = (
        "observer",
        "name",
        "span_id",
        "parent_id",
        "round_index",
        "_resources",
        "_t_wall",
        "_perf0",
        "_cpu0",
        "_closed",
    )

    def __init__(
        self,
        observer,
        name: str,
        span_id: str,
        parent_id: str = "",
        round_index: int = 0,
        resources: bool = False,
        emit_start: bool = True,
    ) -> None:
        self.observer = observer
        self.name = name
        self.span_id = span_id
        self.parent_id = parent_id
        self.round_index = int(round_index)
        self._resources = bool(resources)
        self._closed = False
        _, user0, sys0 = rusage_snapshot()
        self._cpu0 = (user0, sys0)
        self._t_wall = time.time()
        self._perf0 = time.perf_counter()
        if emit_start:
            observer.emit(
                SpanStartEvent(
                    round_index=self.round_index,
                    span_id=self.span_id,
                    parent_id=self.parent_id,
                    name=self.name,
                    t_wall=self._t_wall,
                    pid=os.getpid(),
                )
            )

    @property
    def closed(self) -> bool:
        """Whether :meth:`end` already ran."""
        return self._closed

    def end(self) -> None:
        """Close the span: emit resources (if asked) then the end event.

        Idempotent — a span that was already ended stays ended, so
        ``finally`` blocks and explicit early closes compose.
        """
        if self._closed:
            return
        self._closed = True
        duration = time.perf_counter() - self._perf0
        pid = os.getpid()
        if self._resources:
            rss_kb, user1, sys1 = rusage_snapshot()
            self.observer.emit(
                WorkerResourceEvent(
                    round_index=self.round_index,
                    span_id=self.span_id,
                    pid=pid,
                    rss_peak_kb=rss_kb,
                    cpu_user_s=max(0.0, user1 - self._cpu0[0]),
                    cpu_sys_s=max(0.0, sys1 - self._cpu0[1]),
                )
            )
        self.observer.emit(
            SpanEndEvent(
                round_index=self.round_index,
                span_id=self.span_id,
                t_wall=time.time(),
                duration_s=duration,
                pid=pid,
            )
        )

    def __enter__(self) -> Span:
        return self

    def __exit__(self, *exc_info) -> None:
        self.end()


class NoopSpan:
    """The spans-off span: every operation is a no-op.

    A single shared instance (:data:`NOOP_SPAN`) is returned by
    :meth:`repro.obs.observer.RunObserver.span` whenever tracing or
    spans are disabled, so instrumented code pays one attribute check
    and zero allocations — results stay bitwise identical.
    """

    __slots__ = ()

    closed = True

    def end(self) -> None:
        """Nothing to close."""

    def __enter__(self) -> NoopSpan:
        return self

    def __exit__(self, *exc_info) -> None:
        return None


NOOP_SPAN = NoopSpan()
"""The shared spans-disabled instance."""


@dataclass(frozen=True)
class TaskSample:
    """A worker-side measurement of one client task (picklable).

    Clients of one chunk are trained in a single call, so what is
    measured is the chunk; a client's span is *apportioned* from it
    (:func:`task_span_batch`): an equal share of the chunk's
    duration and CPU time, with the chunk's pid and peak RSS. Shares
    add up to the measurement, which keeps span self-time sums
    meaningful; they say nothing about one client being slower than
    another.

    Attributes:
        t_wall: wall-clock time when the task started, seconds.
        duration_s: measured task duration, seconds.
        pid: the measuring process's OS pid.
        rss_peak_kb: that process's lifetime peak RSS, kilobytes.
        cpu_user_s: user-mode CPU seconds spent on the task.
        cpu_sys_s: kernel-mode CPU seconds spent on the task.
    """

    t_wall: float
    duration_s: float
    pid: int
    rss_peak_kb: float
    cpu_user_s: float
    cpu_sys_s: float


def begin_task_sample() -> Tuple[float, float, float, float]:
    """Start a task measurement; returns an opaque token.

    Call in the process actually running the task (pool worker,
    thread, or the parent for the serial backend) immediately before
    the local update, and close with :func:`end_task_sample`.
    """
    _, user0, sys0 = rusage_snapshot()
    return (time.time(), time.perf_counter(), user0, sys0)


def end_task_sample(token: Tuple[float, float, float, float]) -> TaskSample:
    """Finish a task measurement started by :func:`begin_task_sample`."""
    t_wall, perf0, user0, sys0 = token
    duration = time.perf_counter() - perf0
    rss_kb, user1, sys1 = rusage_snapshot()
    return TaskSample(
        t_wall=t_wall,
        duration_s=duration,
        pid=os.getpid(),
        rss_peak_kb=rss_kb,
        cpu_user_s=max(0.0, user1 - user0),
        cpu_sys_s=max(0.0, sys1 - sys0),
    )


def task_span_batch(
    round_index: int, chunks: Sequence[Tuple[Sequence[int], TaskSample]]
) -> Tuple[int, tuple]:
    """One round's per-client task spans as a column batch.

    ``chunks`` are the round's ``(device_ids, sample)`` pairs in
    selection order; the result is the ``(rows, parts)`` of
    :meth:`repro.obs.observer.RunObserver.emit_batch`, one
    ``span_start``/``worker_resource``/``span_end`` triple per client.
    A chunk of ``n`` clients and duration ``d`` gives client ``i`` the
    share that starts at ``t_wall + i * (d / n)`` and lasts ``d / n``,
    with ``cpu / n`` of each CPU time (:class:`TaskSample`).
    """
    parent_id = round_span_id(round_index, "local_updates")
    span_ids, starts, ends, durations, pids, rss, user, system = ([] for _ in range(8))
    for device_ids, sample in chunks:
        count = len(device_ids)
        share = sample.duration_s / count
        start = sample.t_wall + np.arange(count) * share
        span_ids += [f"{parent_id}/task-{device_id}" for device_id in device_ids]
        starts += start.tolist()
        ends += (start + share).tolist()
        durations += [share] * count
        pids += [sample.pid] * count
        rss += [sample.rss_peak_kb] * count
        user += [sample.cpu_user_s / count] * count
        system += [sample.cpu_sys_s / count] * count
    scalars, shared = {"round_index": round_index}, dict(span_id=span_ids, pid=pids)
    start_scalars = dict(scalars, parent_id=parent_id, name="task")
    resources = dict(shared, rss_peak_kb=rss, cpu_user_s=user, cpu_sys_s=system)
    return len(span_ids), (
        (SpanStartEvent, start_scalars, dict(shared, t_wall=starts)),
        (WorkerResourceEvent, scalars, resources),
        (SpanEndEvent, scalars, dict(shared, t_wall=ends, duration_s=durations)),
    )
