"""In-memory span recorder for the traced pass.

Spans are recorded by the benchmark itself, around its calls into each
layer's public functions; the program under ``src/`` is not touched. A
span is ``(name, start, end, parent)``; all spans of one repeat share
the recorder's ``run_id``. Spans stay in memory until the run ends.

A layer's *self time* is its span's duration minus the part of that
interval its child spans cover, so self times of one run add up to the
root span's duration and nothing is counted twice.
"""

from __future__ import annotations

import time
from typing import Callable, Dict, List, Optional, Sequence

__all__ = ["SpanRecorder", "instrument", "self_times", "self_time_by_name"]


class SpanRecorder:
    """Records nested spans of one single-threaded run.

    The innermost open span is the parent of the next one opened.
    """

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.names: List[str] = []
        self.starts: List[float] = []
        self.ends: List[float] = []
        self.parents: List[int] = []
        self._open: List[int] = []

    def open(self, name: str) -> int:
        """Start a span under the innermost open one; returns its index."""
        index = len(self.names)
        self.names.append(name)
        self.parents.append(self._open[-1] if self._open else -1)
        self.ends.append(0.0)
        self._open.append(index)
        # Appended last so the clock is read as late as possible.
        self.starts.append(time.perf_counter())
        return index

    def close(self, index: int) -> None:
        """End span ``index`` (and any span still open inside it)."""
        now = time.perf_counter()
        while self._open:
            top = self._open.pop()
            self.ends[top] = now
            if top == index:
                return
        raise ValueError(f"span {index} is not open")

    def call(self, name: str, function: Callable, *args, **kwargs):
        """Call ``function`` inside a span named ``name``."""
        index = self.open(name)
        try:
            return function(*args, **kwargs)
        finally:
            self.close(index)

    @property
    def innermost(self) -> Optional[int]:
        """Index of the innermost open span, if any."""
        return self._open[-1] if self._open else None

    def to_dicts(self) -> List[Dict]:
        """JSON form: one dict per span, ``parent`` indexing this list."""
        return [
            {
                "run": self.run_id,
                "name": name,
                "start": start,
                "end": end,
                "parent": parent,
            }
            for name, start, end, parent in zip(
                self.names, self.starts, self.ends, self.parents
            )
        ]


def instrument(
    target: object,
    method: str,
    recorder: SpanRecorder,
    span_name: str,
    before: Optional[Callable[[], None]] = None,
    after: Optional[Callable[[tuple, dict, object], None]] = None,
) -> None:
    """Shadow ``target.method`` with a version that records a span.

    The wrapper is set on the *instance*, so the object keeps its type
    and every other attribute, and other instances are unaffected.
    ``before`` runs ahead of the span (used to roll round spans over);
    ``after`` sees ``(args, kwargs, result)`` once the span has closed
    (used to capture per-round inputs for replay).
    """
    original = getattr(target, method)

    def timed(*args, **kwargs):
        if before is not None:
            before()
        index = recorder.open(span_name)
        try:
            result = original(*args, **kwargs)
        finally:
            recorder.close(index)
        if after is not None:
            after(args, kwargs, result)
        return result

    setattr(target, method, timed)


def _covered(start: float, end: float, intervals: List[tuple]) -> float:
    """Length of ``[start, end]`` covered by the union of ``intervals``."""
    covered = 0.0
    reach = start
    for child_start, child_end in sorted(intervals):
        child_start = max(child_start, reach)
        child_end = min(child_end, end)
        if child_end > child_start:
            covered += child_end - child_start
            reach = child_end
    return covered


def self_times(spans: Sequence[Dict]) -> List[float]:
    """Self time of each span: duration minus what its children cover.

    Children may overlap each other or stick out of the parent; the
    covered part is the union of the children clipped to the parent,
    and a self time is never negative.
    """
    children: Dict[int, List[tuple]] = {}
    for span in spans:
        if span["parent"] >= 0:
            children.setdefault(span["parent"], []).append(
                (span["start"], span["end"])
            )
    result = []
    for index, span in enumerate(spans):
        duration = span["end"] - span["start"]
        covered = _covered(span["start"], span["end"], children.get(index, []))
        result.append(max(duration - covered, 0.0))
    return result


def self_time_by_name(spans: Sequence[Dict]) -> Dict[str, float]:
    """Total self time per span name."""
    totals: Dict[str, float] = {}
    for span, own in zip(spans, self_times(spans)):
        totals[span["name"]] = totals.get(span["name"], 0.0) + own
    return totals
