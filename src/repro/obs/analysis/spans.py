"""Span-tree analytics: structure, critical path, self time.

Span events (:class:`~repro.obs.events.SpanStartEvent` /
:class:`~repro.obs.events.SpanEndEvent`) carry two kinds of
information with very different determinism guarantees:

* **structure** — ids, parents, names, and the *positions* of the
  start/end events in the trace. Emission order is part of the
  trainer's contract, so structure is a pure function of the simulated
  run: identical across execution backends and across a killed run
  resumed to completion. Everything serialized into the
  :class:`~repro.obs.analysis.round_stats.RunStats` snapshot
  (:class:`SpanSummary`) uses only structure, which is what keeps
  campaign aggregates byte-comparable.
* **telemetry** — wall-clock timestamps, durations, pids, and sampled
  worker resources. Deterministic given the trace file (re-rendering
  the same trace yields the same bytes) but not across machines or
  repeat runs. The self-time breakdown (:func:`self_time_rows`) reads
  it for human reports and the Chrome exporter.

The critical path is likewise structural: starting at the root span,
descend at every level into the child whose ``span_end`` appears
*latest in the trace* — emission position, never wall time — so two
identical runs always report the identical path.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro import wire
from repro.obs.events import Event

__all__ = [
    "SpanNode",
    "SpanSummary",
    "build_span_nodes",
    "summarize_spans",
    "self_time_rows",
]


@dataclass(frozen=True)
class SpanNode:
    """One reconstructed span: structure plus its telemetry readings.

    Attributes:
        span_id: the span's id (unique within a run segment).
        name: human-readable span name (``"round"``, ``"task"``, ...).
        parent_id: the parent span's id; empty for roots (or spans
            whose parent lives in another process's trace).
        round_index: the FL round the span belongs to (0 = run-level).
        start_pos: index of the ``span_start`` event in the segment.
        end_pos: index of the ``span_end`` event; ``None`` for a span
            a crash left open.
        t_wall: wall-clock start, Unix seconds.
        duration_s: measured duration (0.0 while unclosed).
        pid: process id that emitted the span.
        rss_peak_kb: sampled peak RSS of that process, KiB (0.0 when
            no ``worker_resource`` event was attached).
        cpu_user_s: sampled user-CPU seconds over the span.
        cpu_sys_s: sampled system-CPU seconds over the span.
    """

    span_id: str
    name: str
    parent_id: str
    round_index: int
    start_pos: int
    end_pos: Optional[int]
    t_wall: float
    duration_s: float
    pid: int
    rss_peak_kb: float = 0.0
    cpu_user_s: float = 0.0
    cpu_sys_s: float = 0.0

    @property
    def closed(self) -> bool:
        """Whether the span's end event made it into the trace."""
        return self.end_pos is not None


@wire.record
@dataclass(frozen=True)
class SpanSummary(wire.Document):
    """The deterministic (structure-only) span digest of one run.

    Every field is a pure function of event kinds, ids, and positions
    — no wall clock, no pids — so the summary is byte-identical across
    execution backends and across crash/resume cycles, and safe to
    embed in snapshot JSON that CI compares with ``cmp``.

    Attributes:
        spans_total: spans opened in the segment.
        spans_unclosed: ``span_start`` events without a matching end
            (0 for a cleanly finished run).
        max_depth: depth of the reconstructed tree (a lone root = 1).
        by_name: spans per name, e.g. ``{"round": 5, "task": 15}``.
        critical_path: span ids from the root to a leaf, descending at
            each level into the child whose end event appears latest
            in the trace.
    """

    noun = "span summary"
    format = dict(sort_keys=True)

    spans_total: int = 0
    spans_unclosed: int = 0
    max_depth: int = 0
    by_name: Dict[str, int] = field(default_factory=dict)
    critical_path: Tuple[str, ...] = ()

    @property
    def critical_path_len(self) -> int:
        """Number of spans on the critical path."""
        return len(self.critical_path)

    @classmethod
    def from_dict(cls, payload, where: Optional[str] = None) -> SpanSummary:
        """As :meth:`repro.wire.Document.from_dict`, and a ``None``
        payload (a run recorded without spans) is the empty summary."""
        if payload is None:
            return cls()
        return super().from_dict(payload, where)


def build_span_nodes(events: Sequence[Event]) -> List[SpanNode]:
    """Reconstruct spans (with telemetry) from one event segment.

    Unmatched ``span_end`` events are ignored (a resumed run's trace
    never contains them; a hand-built one might); a re-opened id
    closes in LIFO order. Nodes are returned in ``span_start`` order.
    """
    open_spans: Dict[str, List[dict]] = {}
    nodes: List[dict] = []
    for position, event in enumerate(events):
        kind = event.kind
        if kind == "span_start":
            record = {
                "span_id": event.span_id,
                "name": event.name,
                "parent_id": event.parent_id,
                "round_index": event.round_index,
                "start_pos": position,
                "end_pos": None,
                "t_wall": event.t_wall,
                "duration_s": 0.0,
                "pid": event.pid,
                "rss_peak_kb": 0.0,
                "cpu_user_s": 0.0,
                "cpu_sys_s": 0.0,
            }
            open_spans.setdefault(event.span_id, []).append(record)
            nodes.append(record)
        elif kind == "worker_resource":
            stack = open_spans.get(event.span_id)
            if stack:
                record = stack[-1]
                record["rss_peak_kb"] = event.rss_peak_kb
                record["cpu_user_s"] = event.cpu_user_s
                record["cpu_sys_s"] = event.cpu_sys_s
        elif kind == "span_end":
            stack = open_spans.get(event.span_id)
            if stack:
                record = stack.pop()
                record["end_pos"] = position
                record["duration_s"] = event.duration_s
    return [SpanNode(**record) for record in nodes]


def _children_by_parent(
    nodes: Sequence[SpanNode],
) -> Dict[str, List[SpanNode]]:
    children: Dict[str, List[SpanNode]] = {}
    for node in nodes:
        children.setdefault(node.parent_id, []).append(node)
    return children


def _roots(nodes: Sequence[SpanNode]) -> List[SpanNode]:
    """Spans whose parent does not appear in this segment."""
    ids = {node.span_id for node in nodes}
    return [node for node in nodes if node.parent_id not in ids]


def summarize_spans(events: Sequence[Event]) -> SpanSummary:
    """Digest one segment's span events into a :class:`SpanSummary`."""
    nodes = build_span_nodes(events)
    if not nodes:
        return SpanSummary()
    by_name: Dict[str, int] = {}
    for node in nodes:
        by_name[node.name] = by_name.get(node.name, 0) + 1
    children = _children_by_parent(nodes)
    by_id: Dict[str, SpanNode] = {node.span_id: node for node in nodes}

    # Depth: iterative, guarding against hand-built parent cycles.
    depths: Dict[str, int] = {}

    def depth_of(node: SpanNode) -> int:
        depth, seen = 1, {node.span_id}
        current = node
        while current.parent_id in by_id:
            cached = depths.get(current.parent_id)
            if cached is not None:
                depth += cached
                break
            if current.parent_id in seen:
                break
            seen.add(current.parent_id)
            current = by_id[current.parent_id]
            depth += 1
        return depth

    max_depth = 0
    for node in nodes:
        depth = depth_of(node)
        depths.setdefault(node.span_id, depth)
        max_depth = max(max_depth, depth)

    # Critical path: latest-ending root, then repeatedly the child
    # whose end event sits latest in the trace (unclosed spans rank
    # past every closed one — they reach the segment's cut).
    def end_rank(node: SpanNode) -> Tuple[int, int]:
        if node.end_pos is None:
            return (1, node.start_pos)
        return (0, node.end_pos)

    path: List[str] = []
    roots = _roots(nodes)
    current: Optional[SpanNode] = (
        max(roots, key=end_rank) if roots else None
    )
    while current is not None:
        path.append(current.span_id)
        branches = children.get(current.span_id)
        current = max(branches, key=end_rank) if branches else None

    return SpanSummary(
        spans_total=len(nodes),
        spans_unclosed=sum(1 for node in nodes if not node.closed),
        max_depth=max_depth,
        by_name=by_name,
        critical_path=tuple(path),
    )


def self_time_rows(
    events: Sequence[Event],
) -> List[Tuple[str, int, float, float, float, float, float]]:
    """Per-name wall-clock breakdown: the report's self-time table.

    Self time is a span's duration minus its direct children's
    durations (floored at 0 — pooled children overlap their parent, so
    a fan-out stage can legitimately report zero self time). Rows are
    ``(name, count, total_s, self_s, rss_peak_kb, cpu_user_s,
    cpu_sys_s)`` sorted by descending total and then name; resources
    are the max (RSS) / sum (CPU) over the name's spans.

    Telemetry-grade: values come from the trace's recorded readings,
    so re-rendering one trace is reproducible, but two runs of the
    same experiment will differ — never embed these in snapshots that
    CI byte-compares.
    """
    nodes = build_span_nodes(events)
    if not nodes:
        return []
    child_time: Dict[str, float] = {}
    for node in nodes:
        if node.parent_id:
            child_time[node.parent_id] = (
                child_time.get(node.parent_id, 0.0) + node.duration_s
            )
    totals: Dict[str, List[float]] = {}
    for node in nodes:
        self_s = max(0.0, node.duration_s - child_time.get(node.span_id, 0.0))
        entry = totals.setdefault(node.name, [0, 0.0, 0.0, 0.0, 0.0, 0.0])
        entry[0] += 1
        entry[1] += node.duration_s
        entry[2] += self_s
        entry[3] = max(entry[3], node.rss_peak_kb)
        entry[4] += node.cpu_user_s
        entry[5] += node.cpu_sys_s
    return [
        (name, int(e[0]), e[1], e[2], e[3], e[4], e[5])
        for name, e in sorted(
            totals.items(), key=lambda item: (-item[1][1], item[0])
        )
    ]
