"""The on-disk campaign manifest: spec copy + per-run status files.

Layout under the campaign directory::

    <dir>/spec.json                  # the governing CampaignSpec
    <dir>/runs/<run_id>/status.json  # {"status", "attempts", "detail"}
    <dir>/runs/<run_id>/trace.jsonl       # the run's event trace
    <dir>/runs/<run_id>/checkpoint.json   # latest trainer checkpoint
    <dir>/runs/<run_id>/checkpoint.history.jsonl  # its rounds, one per line
    <dir>/runs/<run_id>/history.json      # TrainingHistory (run done)
    <dir>/runs/<run_id>/stats.json        # RunStats (run done)
    <dir>/aggregate.json             # campaign-level analytics

Every status write is atomic (tmp + ``os.replace``), so a campaign
killed at any instant leaves a readable manifest: ``--resume`` skips
runs whose status is ``done`` and re-executes the rest from their
checkpoints. A missing ``status.json`` *is* the pending state — no
initialization pass is needed, and a half-created run directory is
indistinguishable from an untouched one.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro import wire
from repro.campaign.spec import CampaignSpec, RunSpec
from repro.errors import ConfigurationError, SerializationError

__all__ = [
    "STATUS_PENDING",
    "STATUS_RUNNING",
    "STATUS_DONE",
    "STATUS_FAILED",
    "RunStatus",
    "CampaignManifest",
]

STATUS_PENDING = "pending"
STATUS_RUNNING = "running"
STATUS_DONE = "done"
STATUS_FAILED = "failed"
_STATUSES = (STATUS_PENDING, STATUS_RUNNING, STATUS_DONE, STATUS_FAILED)


@wire.record
@dataclass(frozen=True)
class RunStatus(wire.Document):
    """One run's manifest entry (``status.json``).

    Attributes:
        run_id: the run this status belongs to.
        status: one of ``pending``/``running``/``done``/``failed``.
        attempts: how many times the run has been launched.
        detail: free-form note (the failure message for ``failed``,
            the last attempt's death for a retrying ``running``).
        started_at: Unix timestamp of the latest launch (``None`` when
            never launched, or written by an older pool version).
        finished_at: Unix timestamp of the terminal transition
            (``done``/``failed``); ``None`` while in flight.
    """

    noun = "status file"
    format = dict(sort_keys=True)

    run_id: str
    status: str = STATUS_PENDING
    attempts: int = 0
    detail: str = ""
    started_at: Optional[float] = None
    finished_at: Optional[float] = None

    def __post_init__(self) -> None:
        if self.status not in _STATUSES:
            raise ConfigurationError(
                f"unknown status {self.status!r}; expected one of {_STATUSES}"
            )

    def elapsed(self, now: Optional[float] = None) -> Optional[float]:
        """Seconds from launch to finish (or to ``now`` while running).

        Returns ``None`` when no launch timestamp was recorded. The
        caller supplies ``now`` (wall-clock reads stay in the caller's
        jurisdiction).
        """
        if self.started_at is None:
            return None
        if self.finished_at is not None:
            return max(0.0, self.finished_at - self.started_at)
        if now is None:
            return None
        return max(0.0, now - self.started_at)


class CampaignManifest:
    """Tracks one campaign directory's spec and per-run statuses.

    Create a fresh manifest with :meth:`create` (writes ``spec.json``)
    or attach to an existing one with :meth:`open` (loads it); both
    processes then agree on the run matrix because the spec is the
    single source of truth.
    """

    SPEC_FILE = "spec.json"
    AGGREGATE_FILE = "aggregate.json"

    def __init__(self, root: str, spec: CampaignSpec) -> None:
        self.root = os.path.abspath(root)
        self.spec = spec
        self.runs: Tuple[RunSpec, ...] = spec.expand()
        seen = set()
        for run in self.runs:
            if run.run_id in seen:
                raise ConfigurationError(
                    f"campaign expands to duplicate run id {run.run_id!r}"
                )
            seen.add(run.run_id)

    # ------------------------------------------------------------------
    @classmethod
    def create(cls, root: str, spec: CampaignSpec) -> CampaignManifest:
        """Initialize ``root`` as a campaign directory for ``spec``.

        Refuses a directory that already carries a *different* spec —
        resuming under changed parameters would silently mix matrices.
        """
        manifest = cls(root, spec)
        spec_path = os.path.join(manifest.root, cls.SPEC_FILE)
        if os.path.exists(spec_path):
            existing = CampaignSpec.load(spec_path)
            if existing.to_dict() != spec.to_dict():
                raise ConfigurationError(
                    f"campaign directory {root} already holds a different "
                    "spec; use a fresh directory or the original spec"
                )
        os.makedirs(manifest.root, exist_ok=True)
        spec.save(spec_path)
        return manifest

    @classmethod
    def open(cls, root: str) -> CampaignManifest:
        """Attach to an existing campaign directory."""
        spec_path = os.path.join(os.path.abspath(root), cls.SPEC_FILE)
        if not os.path.exists(spec_path):
            raise ConfigurationError(
                f"{root} is not a campaign directory (no {cls.SPEC_FILE})"
            )
        return cls(root, CampaignSpec.load(spec_path))

    # ------------------------------------------------------------------
    def run_dir(self, run_id: str) -> str:
        """The directory holding one run's artifacts."""
        return os.path.join(self.root, "runs", run_id)

    def aggregate_path(self) -> str:
        """Where :mod:`repro.campaign.aggregate` writes its document."""
        return os.path.join(self.root, self.AGGREGATE_FILE)

    def _status_path(self, run_id: str) -> str:
        return os.path.join(self.run_dir(run_id), "status.json")

    def read_status(self, run_id: str) -> RunStatus:
        """One run's current status (absent file = pending).

        Raises:
            SerializationError: when the file is torn or not a status.
        """
        path = self._status_path(run_id)
        try:
            payload = wire.read_json(path, SerializationError)
        except FileNotFoundError:
            return RunStatus(run_id=run_id)
        # The directory names the run, whatever the file says.
        return RunStatus.from_dict(
            {**payload, "run_id": run_id}, f"status file {path}"
        )

    def write_status(
        self,
        run_id: str,
        status: str,
        attempts: int,
        detail: str = "",
        started_at: Optional[float] = None,
        finished_at: Optional[float] = None,
    ) -> None:
        """Atomically record one run's status transition.

        Timestamps are supplied by the caller (the pool) rather than
        read here; a reader treats an absent one as ``None``, so status
        files written before they existed still load.
        """
        RunStatus(
            run_id, status, int(attempts), detail, started_at, finished_at
        ).save(self._status_path(run_id))

    def pending_runs(self, resume: bool = False) -> List[RunSpec]:
        """The runs still to execute, in expansion order.

        Without ``resume`` every non-pending run is an error (the
        directory was already used). With ``resume``, ``done`` runs
        are skipped and everything else — ``pending``, ``failed``, and
        ``running`` entries stranded by a killed pool — is (re)run
        from its checkpoint.
        """
        remaining: List[RunSpec] = []
        for run in self.runs:
            status = self.read_status(run.run_id)
            if status.status == STATUS_DONE:
                if not resume:
                    raise ConfigurationError(
                        f"run {run.run_id} is already done in {self.root}; "
                        "pass resume to skip completed runs"
                    )
                continue
            if status.status != STATUS_PENDING and not resume:
                raise ConfigurationError(
                    f"run {run.run_id} is {status.status} in {self.root}; "
                    "pass resume to continue an interrupted campaign"
                )
            remaining.append(run)
        return remaining
