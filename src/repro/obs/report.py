"""Command-line trace analytics behind two ``python -m repro`` commands:

* ``python -m repro trace-report TRACE`` — render one run's analytics
  (terminal table, markdown, JSON snapshot, or Chrome trace);
* ``python -m repro trace-compare BASE OTHER`` — diff two runs and
  exit non-zero on regression, for CI gates.

Inputs may be JSONL traces (``.jsonl`` / ``.jsonl.gz``) or analytics
snapshots previously written with ``--format json`` — the two are told
apart by the snapshot's ``schema`` marker, so a nightly job can
compare a fresh trace against a committed baseline snapshot.

Exit codes: 0 success / no regression, 1 regression found by
``trace-compare``, 2 unreadable or invalid input.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import replace
from typing import Optional

from repro import wire
from repro.errors import ConfigurationError, SerializationError
from repro.obs.analysis.compare import (
    CompareThresholds,
    compare_stats,
    render_comparison,
)
from repro.obs.analysis.loader import load_trace
from repro.obs.analysis.report import REPORT_FORMATS, render_report
from repro.obs.analysis.round_stats import (
    ANALYSIS_SCHEMA,
    RunStats,
    compute_run_stats,
    split_runs,
)
from repro.obs.analysis.spans import self_time_rows
from repro.obs.chrome_trace import render_chrome_trace

__all__ = [
    "add_flags",
    "add_threshold_flags",
    "thresholds_from",
    "load_stats",
    "load_run_events",
    "run",
]

OUTPUT_FORMATS = REPORT_FORMATS + ("chrome-trace",)
"""Report formats plus the raw-trace-only Chrome export."""


def _select_segment(path: str, segments, run: Optional[int]):
    if not segments:
        raise SerializationError(f"{path}: trace contains no events")
    if run is None:
        if len(segments) > 1:
            raise SerializationError(
                f"{path}: trace holds {len(segments)} runs; pick one "
                "with --run N"
            )
        run = 0
    if not 0 <= run < len(segments):
        raise SerializationError(
            f"{path}: --run {run} out of range (trace holds "
            f"{len(segments)} run(s))"
        )
    return segments[run]


def load_run_events(path: str, run: Optional[int] = None):
    """One run's raw event segment from a JSONL trace.

    Unlike :func:`load_stats` this only accepts traces — analytics
    snapshots carry no events to export or time.
    """
    trace = load_trace(path)
    return _select_segment(path, split_runs(trace.events), run)


def load_stats(path: str, run: Optional[int] = None) -> RunStats:
    """Load analytics from a trace file or a stats-snapshot JSON.

    A file whose entire contents parse as one JSON object carrying the
    :data:`ANALYSIS_SCHEMA` marker is a snapshot; a ``repro.bench.*``
    composite document (e.g. ``BENCH_scalability.json``) embedding its
    snapshot under an ``"analytics"`` key is unwrapped to that
    snapshot; anything else is treated as a JSONL trace.

    Args:
        path: the input file.
        run: for multi-run traces (e.g. a traced ``fig2``), which
            0-based run segment to analyze; default is the only
            segment, and it is an error to omit it when the trace
            holds several.

    Raises:
        SerializationError: unreadable/invalid input, or an ambiguous
            multi-run trace without ``run``.
    """
    try:
        payload = wire.read_json(path, SerializationError)
    except (FileNotFoundError, SerializationError):
        # Not one JSON object: a JSONL (or gzipped) trace — or
        # unreadable, which the trace loader below reports.
        payload = {}
    schema = payload.get("schema")
    if isinstance(schema, str) and schema.startswith("repro.bench"):
        analytics = payload.get("analytics")
        if not isinstance(analytics, dict):
            raise SerializationError(
                f"{path}: bench document ({schema}) carries no "
                "'analytics' snapshot"
            )
        payload = analytics
        schema = payload.get("schema")
    if schema == ANALYSIS_SCHEMA:
        stats = RunStats.from_dict(payload, str(path))
        if stats.source:
            return stats
        return replace(stats, source=str(path))

    try:
        trace = load_trace(path)
    except OSError as exc:
        raise SerializationError(f"{path}: cannot read: {exc}") from exc
    segment = _select_segment(path, split_runs(trace.events), run)
    return compute_run_stats(segment, source=str(path))


def add_threshold_flags(parser: argparse.ArgumentParser) -> None:
    """Declare the comparison thresholds (``--strict`` and the three
    drift bounds) on ``parser``; :func:`thresholds_from` reads them."""
    parser.add_argument(
        "--strict",
        action="store_true",
        help="compare mode: any metric difference is a regression",
    )
    parser.add_argument(
        "--energy-threshold",
        type=float,
        default=0.02,
        metavar="REL",
        help="allowed relative total-energy increase (default: 0.02)",
    )
    parser.add_argument(
        "--time-threshold",
        type=float,
        default=0.02,
        metavar="REL",
        help="allowed relative total-time increase (default: 0.02)",
    )
    parser.add_argument(
        "--accuracy-threshold",
        type=float,
        default=0.02,
        metavar="ABS",
        help="allowed absolute final-accuracy drop (default: 0.02)",
    )


def thresholds_from(args: argparse.Namespace) -> CompareThresholds:
    """The thresholds :func:`add_threshold_flags` parsed into ``args``."""
    return CompareThresholds(
        energy_rel=args.energy_threshold,
        time_rel=args.time_threshold,
        accuracy_abs=args.accuracy_threshold,
        strict=args.strict,
    )


def add_flags(
    parser: argparse.ArgumentParser, report: bool = True, compare: bool = True
) -> None:
    """Declare the trace-analytics flags on ``parser``.

    The one declaration behind the ``repro trace-report``
    (``compare=False``) and ``repro trace-compare`` (``report=False``)
    subcommands; :func:`run` takes the namespace either parses.
    """
    parser.add_argument(
        "--output",
        metavar="FILE",
        default=None,
        help="write the report/comparison there instead of stdout",
    )
    parser.add_argument(
        "--run",
        type=int,
        default=None,
        metavar="N",
        help="0-based run index for multi-run traces",
    )
    if report:
        parser.add_argument(
            "--format",
            choices=OUTPUT_FORMATS,
            default="table",
            help=(
                "report output format (default: table); chrome-trace "
                "exports the span tree as Chrome/Perfetto trace-event "
                "JSON and requires a raw JSONL trace input"
            ),
        )
        parser.add_argument(
            "--top-devices",
            type=int,
            default=10,
            metavar="N",
            help="device-table size in report mode (default: 10)",
        )
    if compare:
        add_threshold_flags(parser)


def _emit(text: str, output: Optional[str]) -> None:
    if output is None:
        try:
            print(text)
        except BrokenPipeError:
            # Downstream pager/head closed the pipe; not an analysis
            # error. Detach stdout so the interpreter's shutdown flush
            # does not raise a second time.
            sys.stdout = open(os.devnull, "w", encoding="utf-8")
    else:
        with open(output, "w", encoding="utf-8") as handle:
            handle.write(text + "\n")


def run(args: argparse.Namespace) -> int:
    """Report on ``args.paths[0]``, or with ``args.compare`` diff
    ``args.paths`` (BASE, OTHER); returns the process exit code.

    ``args`` is what a parser carrying :func:`add_flags` parsed.
    """
    try:
        if args.compare:
            base = load_stats(args.paths[0], run=args.run)
            other = load_stats(args.paths[1], run=args.run)
            comparison = compare_stats(base, other, thresholds_from(args))
            _emit(render_comparison(comparison), args.output)
            return 0 if comparison.ok else 1
        if args.format == "chrome-trace":
            events = load_run_events(args.paths[0], run=args.run)
            _emit(render_chrome_trace(events), args.output)
            return 0
        stats = load_stats(args.paths[0], run=args.run)
        span_timing = None
        if args.format != "json" and stats.spans.spans_total:
            try:
                span_timing = self_time_rows(
                    load_run_events(args.paths[0], run=args.run)
                )
            except SerializationError:
                # Snapshot input: structural digest only, no raw
                # events to time.
                span_timing = None
        _emit(
            render_report(
                stats,
                fmt=args.format,
                top_devices=args.top_devices,
                span_timing=span_timing,
            ),
            args.output,
        )
        return 0
    except (ConfigurationError, SerializationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

