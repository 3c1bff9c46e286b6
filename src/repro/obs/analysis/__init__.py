"""Trace analytics: read a JSONL trace back as typed events and derive
the run's quantitative story from it.

PRs 2 and 4 made every run emit a complete, crash-safe JSONL trace;
this subpackage is the half that *reads* those traces:

* :mod:`~repro.obs.analysis.loader` — reconstruct typed
  :class:`~repro.obs.events.Event` objects from any ``.jsonl`` /
  ``.jsonl.gz`` trace, tolerating the truncated tail a killed run can
  leave behind;
* :mod:`~repro.obs.analysis.round_stats` — per-round and per-device
  analytics grounded in the paper: the Eq. (5) all-``f_max`` energy
  counterfactual behind DVFS-savings attribution, Eq. (9)/(10) slack
  utilization, Eq. (20) selection-fairness (Jain index), and
  fault/degradation summaries;
* :mod:`~repro.obs.analysis.report` — render a
  :class:`~repro.obs.analysis.round_stats.RunStats` as deterministic
  terminal tables, markdown, or JSON;
* :mod:`~repro.obs.analysis.compare` — diff two runs and flag
  regressions beyond configurable thresholds (non-zero exit for CI).

Everything here is a pure function of the trace — no wall clock, no
randomness — so a report is byte-identical across execution backends
and repeat invocations. Entry points: the ``python -m repro
trace-report`` / ``trace-compare`` CLI commands.
"""

from repro.obs.analysis.compare import (
    CompareThresholds,
    MetricDrift,
    RunComparison,
    compare_stats,
    render_comparison,
)
from repro.obs.analysis.loader import (
    LoadedTrace,
    event_from_payload,
    load_trace,
    load_trace_lines,
)
from repro.obs.analysis.report import render_report
from repro.obs.analysis.round_stats import (
    ANALYSIS_SCHEMA,
    DeviceStats,
    RoundStats,
    RunStats,
    compute_run_stats,
    jain_index,
    split_runs,
)
from repro.obs.analysis.spans import (
    SpanNode,
    SpanSummary,
    build_span_nodes,
    self_time_rows,
    summarize_spans,
)

__all__ = [
    "LoadedTrace",
    "event_from_payload",
    "load_trace",
    "load_trace_lines",
    "ANALYSIS_SCHEMA",
    "DeviceStats",
    "RoundStats",
    "RunStats",
    "compute_run_stats",
    "jain_index",
    "split_runs",
    "SpanNode",
    "SpanSummary",
    "build_span_nodes",
    "self_time_rows",
    "summarize_spans",
    "render_report",
    "CompareThresholds",
    "MetricDrift",
    "RunComparison",
    "compare_stats",
    "render_comparison",
]
