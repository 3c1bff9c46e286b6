"""Render run analytics as terminal tables, markdown, or JSON.

Rendering is a pure function of the :class:`RunStats` — no wall clock,
no environment probing — so the same trace always renders to the same
bytes, which is what lets CI diff reports across execution backends.
"""

from __future__ import annotations

from typing import List, Optional

from repro.errors import ConfigurationError
from repro.obs.analysis.round_stats import RunStats

__all__ = ["render_report", "REPORT_FORMATS"]

REPORT_FORMATS = ("table", "markdown", "json")
"""Formats :func:`render_report` accepts."""


def _num(value: Optional[float], digits: int = 4) -> str:
    if value is None:
        return "—"
    return f"{value:.{digits}f}"


def _pct(value: Optional[float]) -> str:
    if value is None:
        return "—"
    return f"{100 * value:.2f}%"


def _ids(ids) -> str:
    return ",".join(str(i) for i in ids) if ids else "—"


def _summary_rows(stats: RunStats) -> List[tuple]:
    rows = [
        ("label", stats.label or "—"),
        ("source", stats.source or "—"),
        (
            "stop reason",
            stats.stop_reason or "(truncated — no run_stop)",
        ),
        ("rounds", str(stats.num_rounds)),
        ("devices seen", str(len(stats.devices))),
        ("total time (s)", _num(stats.total_time)),
        ("total energy (J)", _num(stats.total_energy)),
        ("compute energy (J)", _num(stats.total_compute_energy)),
        ("upload energy (J)", _num(stats.total_upload_energy)),
        ("total slack (s)", _num(stats.total_slack)),
        ("evaluations", str(stats.evaluations)),
        ("final accuracy", _num(stats.final_accuracy)),
        ("best accuracy", _num(stats.best_accuracy)),
        ("final test loss", _num(stats.final_test_loss)),
    ]
    return rows


def _dvfs_rows(stats: RunStats) -> List[tuple]:
    return [
        (
            "all-f_max compute energy (J)",
            _num(stats.fmax_compute_energy),
        ),
        ("actual compute energy (J)", _num(stats.total_compute_energy)),
        ("DVFS savings (J)", _num(stats.dvfs_savings)),
        ("DVFS savings (%)", _pct(stats.dvfs_saving_fraction)),
        ("slack utilization", _pct(stats.slack_utilization)),
    ]


def _fairness_rows(stats: RunStats) -> List[tuple]:
    return [
        ("Jain index (selection)", _num(stats.jain_selection)),
        ("Jain index (energy)", _num(stats.jain_energy)),
        ("clients dropped", str(stats.clients_dropped)),
        ("clients timed out", str(stats.clients_timeout)),
    ]


def _span_rows(stats: RunStats) -> List[tuple]:
    spans = stats.spans
    rows = [
        ("spans", str(spans.spans_total)),
        ("unclosed", str(spans.spans_unclosed)),
        ("max depth", str(spans.max_depth)),
        ("critical path", " > ".join(spans.critical_path) or "—"),
    ]
    for name, count in sorted(spans.by_name.items()):
        rows.append((f"spans: {name}", str(count)))
    return rows


_SPAN_TIMING_HEADER = (
    "span",
    "count",
    "total (s)",
    "self (s)",
    "rss peak (KiB)",
    "cpu user (s)",
    "cpu sys (s)",
)


def _span_timing_row(row) -> tuple:
    name, count, total_s, self_s, rss_kb, cpu_user, cpu_sys = row
    return (
        name,
        str(count),
        f"{total_s:.4f}",
        f"{self_s:.4f}",
        f"{rss_kb:.0f}",
        f"{cpu_user:.4f}",
        f"{cpu_sys:.4f}",
    )


def _fault_rows(stats: RunStats) -> List[tuple]:
    rows = [
        ("degraded rounds", str(stats.degraded_rounds)),
        ("battery-drop rounds", str(stats.battery_drop_rounds)),
    ]
    for fault, count in sorted(stats.fault_counts.items()):
        rows.append((f"fault: {fault}", str(count)))
    for cause, count in sorted(stats.drop_causes.items()):
        rows.append((f"drop cause: {cause}", str(count)))
    return rows


_ROUND_HEADER = (
    "round",
    "sel",
    "agg",
    "drop",
    "t/o",
    "delay (s)",
    "energy (J)",
    "savings (J)",
    "slack use",
    "accuracy",
)


def _round_row(r) -> tuple:
    return (
        str(r.round_index),
        str(r.planned),
        "—" if r.aggregated is None else str(r.aggregated),
        str(len(r.dropped_ids)),
        str(len(r.timeout_ids)),
        _num(r.round_delay),
        _num(r.round_energy),
        _num(r.dvfs_savings),
        _pct(r.slack_utilization),
        _num(r.test_accuracy),
    )


_DEVICE_HEADER = (
    "device",
    "f_max",
    "sel",
    "done",
    "drop",
    "t/o",
    "energy (J)",
    "savings (J)",
    "slack (s)",
)


def _device_row(d) -> tuple:
    return (
        str(d.device_id),
        f"{d.f_max:.3g}",
        str(d.selected),
        str(d.completed),
        str(d.dropped),
        str(d.timeouts),
        _num(d.total_joules),
        _num(d.dvfs_savings),
        _num(d.slack_seconds),
    )


def _top_devices(stats: RunStats, top_devices: int):
    """The ``top_devices`` highest-energy devices, energy-descending.

    Ties break on device id so the listing stays deterministic.
    """
    ordered = sorted(
        stats.devices, key=lambda d: (-d.total_joules, d.device_id)
    )
    return ordered[:top_devices]


_FAIRNESS = "Fairness (Jain index, Eq. 20 selection pressure)"
_MARKDOWN_TITLES = {_FAIRNESS: "Fairness"}
"""Section titles the markdown format shortens."""


def _sections(stats: RunStats, top_devices: int, span_timing) -> List[tuple]:
    """Every section the table and markdown formats draw, in order, as
    ``(title, header, rows)``; a ``None`` header marks a name/value
    list."""
    sections = [
        ("Run summary", None, _summary_rows(stats)),
        ("DVFS energy attribution (Eq. 5 counterfactual)", None, _dvfs_rows(stats)),
        (_FAIRNESS, None, _fairness_rows(stats)),
    ]
    if (
        stats.fault_counts
        or stats.drop_causes
        or stats.degraded_rounds
        or stats.battery_drop_rounds
    ):
        sections.append(("Faults & degradation", None, _fault_rows(stats)))
    if stats.spans.spans_total:
        sections.append(
            ("Span tree (structural, deterministic)", None, _span_rows(stats))
        )
    if span_timing:
        sections.append((
            "Span self-time (wall clock, from trace telemetry)",
            _SPAN_TIMING_HEADER,
            [_span_timing_row(r) for r in span_timing],
        ))
    sections.append(
        ("Per-round", _ROUND_HEADER, [_round_row(r) for r in stats.rounds])
    )
    shown = _top_devices(stats, top_devices)
    sections.append((
        f"Top {len(shown)} devices by energy",
        _DEVICE_HEADER,
        [_device_row(d) for d in shown],
    ))
    return sections


def _text_table(header, rows) -> List[str]:
    widths = [
        max(len(str(header[i])), *(len(row[i]) for row in rows))
        if rows
        else len(str(header[i]))
        for i in range(len(header))
    ]
    lines = [
        "  ".join(str(h).rjust(widths[i]) for i, h in enumerate(header)),
        "  ".join("-" * w for w in widths),
    ]
    for row in rows:
        lines.append(
            "  ".join(cell.rjust(widths[i]) for i, cell in enumerate(row))
        )
    return lines


def _text_section(title: str, header, rows) -> List[str]:
    lines = [title, "-" * len(title)]
    if header is None:
        width = max(len(name) for name, _ in rows)
        lines.extend(f"  {name:{width}s}  {value}" for name, value in rows)
    else:
        lines.extend(_text_table(header, rows))
    return lines + [""]


def _md_table(header, rows) -> List[str]:
    lines = [
        "| " + " | ".join(str(h) for h in header) + " |",
        "| " + " | ".join("---" for _ in header) + " |",
    ]
    for row in rows:
        lines.append("| " + " | ".join(row) + " |")
    return lines


def _md_section(title: str, header, rows) -> List[str]:
    return [f"## {title}", "", *_md_table(header or ("metric", "value"), rows), ""]


def render_report(
    stats: RunStats,
    fmt: str = "table",
    top_devices: int = 10,
    span_timing=None,
) -> str:
    """Render a :class:`RunStats` in the requested format.

    Args:
        stats: the analytics to render.
        fmt: ``table`` (terminal), ``markdown``, or ``json``.
        top_devices: how many devices the device table shows (highest
            total energy first; the JSON format always contains all).
        span_timing: optional rows from
            :func:`repro.obs.analysis.spans.self_time_rows` — the
            wall-clock breakdown only a raw trace can supply. Rendered
            as an extra table/markdown section; the JSON format ignores
            it so snapshot bytes stay deterministic.

    Raises:
        ConfigurationError: for an unknown format or a non-positive
            ``top_devices``.
    """
    if fmt not in REPORT_FORMATS:
        raise ConfigurationError(
            f"unknown report format {fmt!r}; expected one of "
            f"{', '.join(REPORT_FORMATS)}"
        )
    if top_devices <= 0:
        raise ConfigurationError(
            f"top_devices must be positive, got {top_devices}"
        )
    if fmt == "json":
        return stats.to_json()
    sections = _sections(stats, top_devices, span_timing)
    if fmt == "markdown":
        out = [f"# Trace report: {stats.label or stats.source or 'run'}", ""]
        for title, header, rows in sections:
            out.extend(_md_section(_MARKDOWN_TITLES.get(title, title), header, rows))
    else:
        out = []
        for title, header, rows in sections:
            out.extend(_text_section(title, header, rows))
    return "\n".join(out)
