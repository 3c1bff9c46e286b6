"""Campaign orchestration: declarative multi-run experiments that
survive crashes.

A campaign is a declarative spec (:class:`CampaignSpec` — seeds ×
strategies × config overrides × fault plans) expanded into a
deterministic run matrix, executed by a fault-tolerant local worker
pool (:class:`CampaignPool`) against an on-disk manifest
(:class:`CampaignManifest`) of atomic per-run status files. Each run
trains with tracing and checkpointing on; a killed worker — or a
killed campaign — resumes from its last checkpoint (starting the run
over when that checkpoint is unreadable or newer than its trace) and
finishes bitwise identical to an uninterrupted run. Results aggregate into a
byte-comparable campaign document
(:func:`~repro.campaign.aggregate.write_aggregate`) wired into the
:mod:`repro.obs.analysis` compare machinery.

Typical usage::

    python -m repro campaign run spec.json --dir out/         # fresh
    python -m repro campaign run spec.json --dir out/ --resume # after a crash
    python -m repro campaign status out/                       # one frame
    python -m repro campaign watch out/                        # live
    python -m repro campaign compare ref/aggregate.json out/aggregate.json

A parameter sweep is a spec with one ``overrides`` entry per grid
point. A crash-safe multi-seed study is a spec's ``seeds`` x
``strategies`` axes; in-process it is one
:func:`~repro.experiments.fig2.run_fig2` per seed.
"""

from repro.campaign.aggregate import (
    AGGREGATE_SCHEMA,
    compare_campaigns,
    load_aggregate,
    write_aggregate,
)
from repro.campaign.manifest import (
    STATUS_DONE,
    STATUS_FAILED,
    STATUS_PENDING,
    STATUS_RUNNING,
    CampaignManifest,
    RunStatus,
)
from repro.campaign.pool import CampaignPool
from repro.campaign.runner import execute_run, resumable_round, truncate_trace
from repro.campaign.spec import CampaignSpec, RunSpec
from repro.campaign.watch import (
    CampaignSnapshot,
    RunProgress,
    render_snapshot,
    snapshot_campaign,
    watch,
)

__all__ = [
    "AGGREGATE_SCHEMA",
    "STATUS_DONE",
    "STATUS_FAILED",
    "STATUS_PENDING",
    "STATUS_RUNNING",
    "CampaignManifest",
    "CampaignPool",
    "CampaignSnapshot",
    "CampaignSpec",
    "RunProgress",
    "RunSpec",
    "RunStatus",
    "compare_campaigns",
    "execute_run",
    "load_aggregate",
    "render_snapshot",
    "resumable_round",
    "snapshot_campaign",
    "truncate_trace",
    "watch",
    "write_aggregate",
]
