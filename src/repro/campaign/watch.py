"""Live campaign monitoring: ``python -m repro campaign watch DIR``
and ``python -m repro campaign status DIR``.

The watcher is a strictly *read-only* sibling of the pool: it tails
the manifest's atomic ``status.json`` files plus each run's
``trace.jsonl`` and renders per-run progress (rounds done / planned),
attempt counts with the last failure note, elapsed time, round
throughput, and an ETA — without opening anything for writing, taking
any lock, or otherwise perturbing the workers. Every file it reads is
designed for exactly this: statuses are written atomically, and a
trace's torn final line (a worker mid-write) parses as "ignore the
tail".

``campaign status`` prints one :func:`render_snapshot` frame of
:func:`snapshot_campaign`; ``campaign watch`` (:func:`watch`) redraws
that frame every ``--interval`` seconds until every run reaches a
terminal status.
"""

from __future__ import annotations

import os
import sys
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro import wire
from repro.campaign.manifest import (
    STATUS_DONE,
    STATUS_FAILED,
    STATUS_PENDING,
    STATUS_RUNNING,
    CampaignManifest,
    RunStatus,
)
from repro.errors import SerializationError

__all__ = [
    "line_round",
    "RunProgress",
    "CampaignSnapshot",
    "scan_trace_progress",
    "snapshot_campaign",
    "render_snapshot",
    "watch",
]

_TERMINAL = (STATUS_DONE, STATUS_FAILED)


@dataclass(frozen=True)
class RunProgress:
    """One run's live state, as reconstructible from disk alone.

    Attributes:
        run_id: the run.
        status: manifest status (``pending``/``running``/...).
        attempts: launches so far.
        detail: the manifest's note (last failure while retrying).
        rounds_done: completed rounds counted from the run's trace
            (``timeline`` events — a round counts once its schedule
            committed).
        rounds_planned: the spec's round budget for the run.
        elapsed_s: seconds since launch (running) or launch-to-finish
            (terminal); ``None`` before the first launch or for status
            files written by pre-timestamp pools.
        throughput_rps: completed rounds per second of elapsed time
            (``None`` without both ingredients).
        eta_s: estimated seconds until the run finishes at the current
            throughput (``None`` when unknown; 0 for terminal runs).
    """

    run_id: str
    status: str
    attempts: int
    detail: str
    rounds_done: int
    rounds_planned: int
    elapsed_s: Optional[float]
    throughput_rps: Optional[float]
    eta_s: Optional[float]


@dataclass(frozen=True)
class CampaignSnapshot:
    """One rendered frame's worth of campaign state.

    Attributes:
        name: the campaign spec's name.
        root: the campaign directory.
        runs: per-run progress, in expansion order.
        total_attempts: launches summed over runs (retries included).
    """

    name: str
    root: str
    runs: Tuple[RunProgress, ...]
    total_attempts: int

    @property
    def counts(self) -> Dict[str, int]:
        """Runs per status name."""
        tally: Dict[str, int] = {}
        for run in self.runs:
            tally[run.status] = tally.get(run.status, 0) + 1
        return tally

    @property
    def finished(self) -> bool:
        """True once every run is ``done`` or ``failed``."""
        return all(run.status in _TERMINAL for run in self.runs)


def line_round(payload: dict) -> int:
    """The round of a raw (unvalidated) trace line, 0 for a run-level
    one; a ``round_index`` that is no int is a ``SerializationError``."""
    round_index = payload.get("round_index", 0)
    if not wire.SHAPES[int].check(round_index):
        raise SerializationError(
            f"round_index must be an int, got {round_index!r}"
        )
    return round_index


def _timeline_round(payload: dict) -> int:
    return line_round(payload) if payload.get("event") == "timeline" else 0


def scan_trace_progress(path: str) -> int:
    """Completed rounds recorded in a trace file (0 when absent).

    Counts ``timeline`` events — one per round whose TDMA schedule
    committed — tolerating the torn tail and the duplicate round-0
    telemetry a killed-and-resumed worker leaves behind (resume
    truncates before re-emitting, so surviving lines never double
    count a round; the max index is what matters). A watcher must keep
    rendering, so a line malformed mid-stream ends the count there
    instead of raising.
    """
    rounds = 0
    try:
        for _, round_index in wire.read_jsonl(
            path, SerializationError, parse=_timeline_round
        ):
            rounds = max(rounds, round_index)
    except (OSError, SerializationError):
        pass
    return rounds


def _progress_for(
    run_spec,
    status: RunStatus,
    run_dir: str,
    now: float,
) -> RunProgress:
    rounds_planned = run_spec.build_settings().rounds
    rounds_done = scan_trace_progress(os.path.join(run_dir, "trace.jsonl"))
    elapsed = status.elapsed(
        now=None if status.status in _TERMINAL else now
    )
    throughput = None
    eta = None
    if status.status in _TERMINAL:
        eta = 0.0
    if elapsed and elapsed > 0.0 and rounds_done > 0:
        throughput = rounds_done / elapsed
        if status.status == STATUS_RUNNING and throughput > 0.0:
            eta = max(0, rounds_planned - rounds_done) / throughput
    return RunProgress(
        run_id=run_spec.run_id,
        status=status.status,
        attempts=status.attempts,
        detail=status.detail,
        rounds_done=min(rounds_done, rounds_planned),
        rounds_planned=rounds_planned,
        elapsed_s=elapsed,
        throughput_rps=throughput,
        eta_s=eta,
    )


def snapshot_campaign(
    manifest: CampaignManifest, now: float
) -> CampaignSnapshot:
    """Read one consistent-enough frame of the campaign's state.

    Args:
        manifest: the campaign to inspect (opened read-only).
        now: the caller's wall clock, for elapsed/ETA of running runs.
    """
    runs: List[RunProgress] = []
    for run_spec in manifest.runs:
        status = manifest.read_status(run_spec.run_id)
        runs.append(
            _progress_for(
                run_spec, status, manifest.run_dir(run_spec.run_id), now
            )
        )
    return CampaignSnapshot(
        name=manifest.spec.name,
        root=manifest.root,
        runs=tuple(runs),
        total_attempts=sum(run.attempts for run in runs),
    )


def _fmt_duration(seconds: Optional[float]) -> str:
    if seconds is None:
        return "—"
    seconds = max(0.0, seconds)
    if seconds < 60:
        return f"{seconds:.1f}s"
    minutes, rest = divmod(seconds, 60.0)
    if minutes < 60:
        return f"{int(minutes)}m{rest:02.0f}s"
    hours, minutes = divmod(minutes, 60.0)
    return f"{int(hours)}h{int(minutes):02d}m"


def _bar(done: int, planned: int, width: int = 20) -> str:
    if planned <= 0:
        return " " * width
    filled = int(width * min(done, planned) / planned)
    return "#" * filled + "." * (width - filled)


def render_snapshot(snapshot: CampaignSnapshot) -> str:
    """Render one frame as plain text (deterministic given the state)."""
    counts = snapshot.counts
    summary = "  ".join(
        f"{name}={counts[name]}"
        for name in (STATUS_PENDING, STATUS_RUNNING, STATUS_DONE,
                     STATUS_FAILED)
        if counts.get(name)
    ) or "no runs"
    lines = [
        f"campaign {snapshot.name} — {snapshot.root}",
        f"runs: {summary}  attempts={snapshot.total_attempts}",
        "",
        f"{'run':32s} {'status':8s} {'progress':26s} "
        f"{'att':>3s} {'elapsed':>8s} {'r/s':>7s} {'eta':>8s}  note",
    ]
    for run in snapshot.runs:
        progress = (
            f"[{_bar(run.rounds_done, run.rounds_planned)}] "
            f"{run.rounds_done}/{run.rounds_planned}"
        )
        rate = (
            f"{run.throughput_rps:.2f}"
            if run.throughput_rps is not None
            else "—"
        )
        lines.append(
            f"{run.run_id:32s} {run.status:8s} {progress:26s} "
            f"{run.attempts:3d} {_fmt_duration(run.elapsed_s):>8s} "
            f"{rate:>7s} {_fmt_duration(run.eta_s):>8s}  "
            f"{run.detail or '—'}"
        )
    return "\n".join(lines)


def watch(
    root: str,
    interval_s: float = 2.0,
    stream=None,
) -> int:
    """Monitor a campaign directory until it finishes.

    Args:
        root: the campaign directory (holding ``spec.json``).
        interval_s: refresh cadence.
        stream: output stream (default ``sys.stdout``).

    Returns:
        0 when the campaign is finished; interrupting with Ctrl-C also
        returns 0 (watching is not a gate).
    """
    out = stream if stream is not None else sys.stdout
    manifest = CampaignManifest.open(root)
    try:
        while True:
            now = time.time()
            snapshot = snapshot_campaign(manifest, now)
            frame = render_snapshot(snapshot)
            if out.isatty():
                out.write("\x1b[2J\x1b[H")
            out.write(frame + "\n")
            out.flush()
            if snapshot.finished:
                return 0
            time.sleep(interval_s)
    except KeyboardInterrupt:
        return 0
