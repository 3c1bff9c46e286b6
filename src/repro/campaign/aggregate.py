"""Campaign-level analytics: aggregate and compare run stats.

The aggregate document collects every run's
:class:`~repro.obs.analysis.RunStats` snapshot (in expansion order)
plus per-strategy mean/std summaries, and is written with sorted keys
and no volatile fields — no wall-clock timestamps, no attempt counts,
no absolute paths. That makes it *byte-comparable*: a campaign killed
and resumed produces exactly the same ``aggregate.json`` as an
uninterrupted one, which is the crash-recovery acceptance check CI
enforces with ``cmp``.

Comparison reuses the per-run :func:`repro.obs.analysis.compare_stats`
machinery, so campaign regression gates get the same thresholded
energy/time/accuracy drift verdicts as single-run snapshots.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro import wire
from repro.analysis.stats import mean_std
from repro.campaign.manifest import STATUS_DONE, CampaignManifest
from repro.campaign.runner import STATS_FILE
from repro.errors import ConfigurationError, SerializationError
from repro.obs.analysis import CompareThresholds, RunStats, compare_stats

__all__ = [
    "AGGREGATE_SCHEMA",
    "aggregate_campaign",
    "write_aggregate",
    "load_aggregate",
    "compare_campaigns",
]

AGGREGATE_SCHEMA = "repro.campaign-aggregate"

_SUMMARY_METRICS = (
    "final_accuracy",
    "best_accuracy",
    "total_time",
    "total_energy",
    "num_rounds",
)


@wire.record
@dataclass(frozen=True)
class _AggregateRun:
    """One run's entry: its matrix coordinates and stats snapshot."""

    run_id: str
    seed: int
    strategy: str
    stats: dict


@wire.record
@dataclass(frozen=True)
class _Aggregate(wire.Document):
    """The aggregate document."""

    noun = "aggregate"
    schema = AGGREGATE_SCHEMA
    format = dict(sort_keys=True, indent=2)

    name: str
    runs: Tuple[_AggregateRun, ...]
    summary: dict


def _stats_metric(stats: RunStats, metric: str) -> float:
    if metric == "final_accuracy":
        values = [
            r.test_accuracy
            for r in stats.rounds
            if r.test_accuracy is not None
        ]
        return float(values[-1]) if values else 0.0
    if metric == "best_accuracy":
        values = [
            r.test_accuracy
            for r in stats.rounds
            if r.test_accuracy is not None
        ]
        return float(max(values)) if values else 0.0
    return float(getattr(stats, metric))


def _aggregate(manifest: CampaignManifest) -> _Aggregate:
    """Build the campaign's aggregate document from its run stats.

    Every run must be ``done``; a campaign with failed or unfinished
    runs has no aggregate (resume it first).
    """
    runs: List[_AggregateRun] = []
    by_strategy: Dict[str, List[RunStats]] = {}
    for run in manifest.runs:
        status = manifest.read_status(run.run_id)
        if status.status != STATUS_DONE:
            raise ConfigurationError(
                f"run {run.run_id} is {status.status}; aggregate needs "
                "every run done (resume the campaign first)"
            )
        stats_path = os.path.join(manifest.run_dir(run.run_id), STATS_FILE)
        try:
            stats = RunStats.load(stats_path)
        except FileNotFoundError as exc:
            raise SerializationError(
                f"run {run.run_id} is done but has no {STATS_FILE}"
            ) from exc
        runs.append(
            _AggregateRun(run.run_id, run.seed, run.strategy, stats.to_dict())
        )
        by_strategy.setdefault(run.strategy, []).append(stats)
    summary = {
        strategy: {
            metric: list(
                mean_std(
                    [_stats_metric(stats, metric) for stats in stats_list]
                )
            )
            for metric in _SUMMARY_METRICS
        }
        for strategy, stats_list in sorted(by_strategy.items())
    }
    return _Aggregate(manifest.spec.name, tuple(runs), summary)


def aggregate_campaign(manifest: CampaignManifest) -> dict:
    """The aggregate document of a campaign whose runs are all done."""
    return _aggregate(manifest).to_dict()


def write_aggregate(manifest: CampaignManifest) -> str:
    """Write the aggregate document; returns its path."""
    path = manifest.aggregate_path()
    _aggregate(manifest).save(path)
    return path


def load_aggregate(path: str) -> dict:
    """Load and shape-check an aggregate document.

    Each run's ``stats`` snapshot is checked when it is used
    (:func:`compare_campaigns`).

    Raises:
        SerializationError: when ``path`` is not an aggregate.
    """
    return _Aggregate.load(path).to_dict()


def compare_campaigns(
    base: dict,
    other: dict,
    thresholds: Optional[CompareThresholds] = None,
) -> Tuple[List, bool]:
    """Compare two aggregates run by run (matched on run id).

    Returns ``(comparisons, regressed)`` where ``comparisons`` are the
    per-run :class:`~repro.obs.analysis.RunComparison` objects for
    runs present in both documents, and ``regressed`` is True when any
    shared run regressed past the thresholds or either side has runs
    the other lacks.
    """
    base_runs = {entry["run_id"]: entry for entry in base.get("runs", [])}
    other_runs = {entry["run_id"]: entry for entry in other.get("runs", [])}
    comparisons = []
    regressed = set(base_runs) != set(other_runs)
    for run_id in base_runs:
        if run_id not in other_runs:
            continue
        where = f"aggregate run {run_id} stats"
        comparison = compare_stats(
            RunStats.from_dict(base_runs[run_id]["stats"], where),
            RunStats.from_dict(other_runs[run_id]["stats"], where),
            thresholds=thresholds,
        )
        comparisons.append(comparison)
        if not comparison.ok:
            regressed = True
    return comparisons, bool(regressed)
