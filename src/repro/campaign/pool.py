"""The fault-tolerant local worker pool driving a campaign.

One ``multiprocessing.Process`` per run — deliberately *not* a
``ProcessPoolExecutor``, whose whole pool breaks permanently when a
single worker dies (``BrokenProcessPool``). Here a SIGKILLed, crashed,
or hung worker costs exactly one run one attempt: the parent observes
the exit code (or the liveness timeout), requeues the run with
``resume=True`` — so the retry continues from the dead worker's last
checkpoint instead of re-training from round one — and gives up only
after the spec's ``max_retries`` requeues, marking the run ``failed``
in the manifest while the rest of the campaign proceeds.

All scheduling state lives in the manifest's atomic status files, so
the pool itself is crash-safe too: kill the whole campaign process and
``--resume`` reconstructs the frontier from disk.
"""

from __future__ import annotations

import logging
import multiprocessing
import os
import sys
import time
from collections import deque
from typing import Callable, Dict, Optional

from repro.blas import set_blas_threads
from repro.campaign.manifest import (
    STATUS_DONE,
    STATUS_FAILED,
    STATUS_RUNNING,
    CampaignManifest,
)
from repro.campaign.runner import execute_run
from repro.campaign.spec import RunSpec
from repro.errors import ConfigurationError

__all__ = [
    "CAMPAIGN_TRACE_FILE",
    "CampaignPool",
    "worker_main",
]

_LOGGER = logging.getLogger("repro.campaign.pool")

CAMPAIGN_TRACE_FILE = "campaign-trace.jsonl"
"""Pool-side span trace, next to ``spec.json`` in the campaign dir."""


def worker_main(
    run_payload: dict,
    run_dir: str,
    resume: bool,
    log_level: Optional[str] = None,
    spans: bool = True,
    parent_span_id: str = "",
) -> None:
    """Process entry point: execute one run, exit 0 on success.

    Any exception prints its traceback to stderr and exits 1; the
    parent turns non-zero (and signal) exits into a retry or a
    ``failed`` manifest entry. The ``done`` status is written by the
    parent only after observing a clean exit, so a worker killed at
    the very last instant still counts as dead and is re-verified by
    a resumed attempt.

    ``log_level``, ``spans``, and ``parent_span_id`` are the parent's
    observability settings, carried across the process boundary so the
    worker logs at the requested level and its run span links back to
    the pool's attempt span.

    BLAS runs on one thread: the pool's workers already share out the
    cores, and OpenBLAS would otherwise start one thread per core in
    each of them.
    """
    set_blas_threads(1)
    try:
        execute_run(
            RunSpec.from_dict(run_payload),
            run_dir,
            resume=resume,
            log_level=log_level,
            spans=spans,
            parent_span_id=parent_span_id,
        )
    except Exception:  # pragma: no cover - exercised via subprocess
        import traceback

        traceback.print_exc()
        sys.exit(1)


class CampaignPool:
    """Farms a manifest's pending runs out across worker processes.

    Args:
        manifest: the campaign to drive.
        pool_workers: concurrent worker processes (default: the
            spec's ``pool_workers``).
        max_retries: requeues per run before giving up (default: the
            spec's ``max_retries``).
        run_timeout_s: optional wall-clock liveness bound per attempt;
            a worker alive past it is presumed hung, killed, and the
            run requeued. ``None`` (the default) trusts workers to
            finish or die.
        poll_interval_s: parent poll cadence, seconds.
        spawn_hook: optional callback ``(run, process, attempt)``
            invoked after each worker launch — the chaos-drill /
            test hook used to SIGKILL workers mid-run.
        log_level: when given, forwarded into every worker process so
            worker-side warnings reach stderr at the same level the
            parent logs at.
        spans: emit pool-side span events (the ``campaign`` span plus
            one span per launch attempt) into ``campaign-trace.jsonl``
            in the campaign directory, and enable span tracing inside
            workers; ``False`` disables both.
    """

    def __init__(
        self,
        manifest: CampaignManifest,
        pool_workers: Optional[int] = None,
        max_retries: Optional[int] = None,
        run_timeout_s: Optional[float] = None,
        poll_interval_s: float = 0.05,
        spawn_hook: Optional[Callable] = None,
        log_level: Optional[str] = None,
        spans: bool = True,
    ) -> None:
        spec = manifest.spec
        self.manifest = manifest
        self.pool_workers = (
            spec.pool_workers if pool_workers is None else int(pool_workers)
        )
        self.max_retries = (
            spec.max_retries if max_retries is None else int(max_retries)
        )
        if self.pool_workers <= 0:
            raise ConfigurationError(
                f"pool_workers must be positive, got {self.pool_workers}"
            )
        if self.max_retries < 0:
            raise ConfigurationError(
                f"max_retries must be non-negative, got {self.max_retries}"
            )
        if run_timeout_s is not None and run_timeout_s <= 0:
            raise ConfigurationError(
                f"run_timeout_s must be positive when set, got {run_timeout_s}"
            )
        self.run_timeout_s = run_timeout_s
        self.poll_interval_s = float(poll_interval_s)
        self.spawn_hook = spawn_hook
        self.log_level = log_level
        self.spans = bool(spans)

    # ------------------------------------------------------------------
    def run(self, resume: bool = False) -> Dict[str, str]:
        """Drive every pending run to ``done`` or ``failed``.

        Args:
            resume: skip ``done`` runs and continue interrupted ones
                from their checkpoints (the ``--resume`` semantics).

        Returns:
            Final status name per run id, in expansion order.
        """
        manifest = self.manifest
        queue = deque(manifest.pending_runs(resume=resume))
        attempts: Dict[str, int] = {
            run.run_id: manifest.read_status(run.run_id).attempts
            for run in queue
        }
        # A previously attempted run (stranded 'running'/'failed' or a
        # requeue) must resume from its own checkpoint even when the
        # campaign-level flag started the run fresh.
        resume_next: Dict[str, bool] = {
            run.run_id: resume for run in queue
        }
        # Last-failure notes, carried into the next attempt's status so
        # `campaign status` and `campaign watch` can show why a run is
        # on its Nth attempt while it is still retrying.
        failures: Dict[str, str] = {}
        active: Dict[str, dict] = {}
        context = multiprocessing.get_context()
        observer, trace_handle = self._campaign_observer()
        campaign_span = observer.span("campaign", resources=True)

        def launch(run: RunSpec) -> None:
            attempts[run.run_id] += 1
            started_at = time.time()
            manifest.write_status(
                run.run_id,
                STATUS_RUNNING,
                attempts[run.run_id],
                detail=failures.get(run.run_id, ""),
                started_at=started_at,
            )
            process = context.Process(
                target=worker_main,
                args=(
                    run.to_dict(),
                    manifest.run_dir(run.run_id),
                    resume_next[run.run_id],
                    self.log_level,
                    self.spans,
                    f"{run.run_id}/attempt-{attempts[run.run_id]}",
                ),
                name=f"campaign-{run.run_id}",
            )
            process.daemon = True
            process.start()
            active[run.run_id] = {
                "process": process,
                "run": run,
                "started": time.monotonic(),
                "started_at": started_at,
                "span": observer.span(
                    "attempt",
                    span_id=f"{run.run_id}/attempt-{attempts[run.run_id]}",
                    parent_id="campaign",
                ),
            }
            _LOGGER.info(
                "launched %s (attempt %d, pid %d)",
                run.run_id,
                attempts[run.run_id],
                process.pid,
            )
            if self.spawn_hook is not None:
                self.spawn_hook(run, process, attempts[run.run_id])

        def reap() -> None:
            for run_id in list(active):
                entry = active[run_id]
                process = entry["process"]
                if process.exitcode is None:
                    if self.run_timeout_s is not None:
                        elapsed = (
                            time.monotonic()
                            - entry["started"]
                        )
                        if elapsed > self.run_timeout_s:
                            _LOGGER.warning(
                                "%s exceeded %.1fs; presuming hung",
                                run_id,
                                self.run_timeout_s,
                            )
                            process.kill()
                            process.join()
                            entry["span"].end()
                            self._handle_death(
                                entry,
                                attempts,
                                resume_next,
                                failures,
                                queue,
                                "hung",
                            )
                            del active[run_id]
                    continue
                process.join()
                entry["span"].end()
                if process.exitcode == 0:
                    manifest.write_status(
                        run_id,
                        STATUS_DONE,
                        attempts[run_id],
                        started_at=entry["started_at"],
                        finished_at=time.time(),
                    )
                    _LOGGER.info("%s done", run_id)
                else:
                    self._handle_death(
                        entry,
                        attempts,
                        resume_next,
                        failures,
                        queue,
                        f"exit code {process.exitcode}",
                    )
                del active[run_id]

        try:
            while queue or active:
                while queue and len(active) < self.pool_workers:
                    launch(queue.popleft())
                reap()
                if active:
                    time.sleep(self.poll_interval_s)
        finally:
            # Close attempt spans a crashing pool would strand, then
            # the campaign span, so the trace tail stays parseable.
            for entry in active.values():
                entry["span"].end()
            campaign_span.end()
            observer.close()
            if trace_handle is not None:
                trace_handle.close()
        return {
            run.run_id: manifest.read_status(run.run_id).status
            for run in manifest.runs
        }

    def _campaign_observer(self):
        """The pool-side observer (and owned trace handle, if any).

        Spans off (or tracing unavailable) yields a null observer whose
        spans compile to no-ops — the pool's control flow is identical
        either way. The trace opens in append mode so a resumed
        campaign extends the same file instead of erasing the earlier
        pool's spans.
        """
        from repro.obs import JsonlTraceSink, RunObserver

        if not self.spans:
            return RunObserver(), None
        path = os.path.join(self.manifest.root, CAMPAIGN_TRACE_FILE)
        handle = open(path, "a", encoding="utf-8")
        return RunObserver(sink=JsonlTraceSink(handle)), handle

    def _handle_death(
        self,
        entry: dict,
        attempts: Dict[str, int],
        resume_next: Dict[str, bool],
        failures: Dict[str, str],
        queue: deque,
        cause: str,
    ) -> None:
        """Requeue a dead worker's run, or mark it permanently failed."""
        run = entry["run"]
        run_id = run.run_id
        if attempts[run_id] <= self.max_retries:
            resume_next[run_id] = True
            failures[run_id] = (
                f"attempt {attempts[run_id]} died ({cause}); retrying"
            )
            queue.append(run)
            _LOGGER.warning(
                "%s died (%s); requeued with resume (attempt %d of %d)",
                run_id,
                cause,
                attempts[run_id] + 1,
                self.max_retries + 1,
            )
        else:
            self.manifest.write_status(
                run_id,
                STATUS_FAILED,
                attempts[run_id],
                detail=f"gave up after {attempts[run_id]} attempts ({cause})",
                started_at=entry["started_at"],
                finished_at=time.time(),
            )
            _LOGGER.error(
                "%s failed permanently after %d attempts (%s)",
                run_id,
                attempts[run_id],
                cause,
            )

