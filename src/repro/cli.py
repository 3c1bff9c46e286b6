"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``run`` — train one scheme and print its trajectory summary;
* ``fig2`` — regenerate a Fig. 2 panel (accuracy comparison);
* ``table1`` — regenerate a Table I half (delay to accuracy);
* ``fig3`` — regenerate a Fig. 3 panel (DVFS energy reduction);
* ``report`` — the full evaluation, both regimes, as one text report;
* ``trace-report`` — analyze a recorded JSONL trace;
* ``trace-compare`` — diff two traces, non-zero exit on regression;
* ``campaign`` — run/inspect/compare declarative multi-run campaigns
  with checkpointed crash recovery (``campaign run spec.json --dir
  out/ --resume`` continues a killed campaign bitwise identically);
* ``info`` — print the resolved experiment settings.

``run``, ``fig2``, ``table1``, ``fig3``, ``report`` and ``info`` take
``--quick`` (20 users, fast; paper scale otherwise), ``--seed`` and
``--rounds``; each command declares only the flags it reads.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from typing import List, Optional

from repro.baselines.registry import strategy_labels
from repro.errors import ReproError
from repro.experiments import export
from repro.experiments.fig2 import PAPER_STRATEGIES, run_fig2
from repro.experiments.fig3 import derive_fig3
from repro.experiments.reporting import (
    format_fig2_table,
    format_fig3_table,
    format_table1,
)
from repro.experiments.runner import STRATEGY_NAMES, run_strategy
from repro.experiments.settings import ExperimentSettings
from repro.experiments.table1 import derive_table1
from repro.fl.execution import BACKEND_NAMES
from repro.obs import report as trace_analytics
from repro.version import PAPER_TITLE, PAPER_VENUE, __version__

__all__ = ["main", "build_parser"]


_FLAGS = {
    "--quick": dict(
        action="store_true",
        help="small fast profile (20 users) instead of the paper scale",
    ),
    "--seed": dict(type=int, default=7, help="master seed"),
    "--rounds": dict(type=int, default=None, help="override FL round count"),
    "--noniid": dict(
        action="store_true",
        help="use the paper's label-shard non-IID partition",
    ),
    "--output": dict(
        type=str,
        default=None,
        help="also save the artifact as a JSON document at this path",
    ),
    "--backend": dict(
        choices=BACKEND_NAMES,
        default="serial",
        help="client-execution backend fanning local updates across "
        "workers (results are identical for every backend at a fixed "
        "seed)",
    ),
    "--workers": dict(
        type=int,
        default=None,
        help="chunks the thread/process backends train at once; the "
        "calling process trains one, so N - 1 threads or processes are "
        "started (default: CPU count)",
    ),
    "--trace": dict(
        type=str,
        default=None,
        metavar="PATH",
        help="stream per-round trace events (selection, frequencies, "
        "timeline, battery drops, aggregation, eval, stop reason) as "
        "JSON lines to PATH; tracing never changes results",
    ),
    "--no-spans": dict(
        action="store_true",
        help="omit span/resource telemetry events from the trace "
        "(simulation events only); results are identical either way",
    ),
    "--log-level": dict(
        choices=("debug", "info", "warning", "error"),
        default=None,
        help="enable library logging on stderr at this level",
    ),
    "--faults": dict(
        type=str,
        default=None,
        metavar="PLAN",
        help="JSON fault-plan file injecting seeded chaos (device "
        "dropouts, stragglers, channel outages, battery deaths) into "
        "every FL run; see examples/fault_plan.json. An empty plan is "
        "bitwise identical to running without one",
    ),
    "--round-deadline": dict(
        type=float,
        default=None,
        metavar="SECONDS",
        help="hard per-round deadline in simulated seconds: clients "
        "that cannot finish by it are cut off and excluded from "
        "aggregation",
    ),
}
"""Every flag the training commands share; ``run``, ``fig2`` and
``table1`` declare all of them, ``fig3``, ``report`` and ``info`` only
the ones they read."""

_FIG3_FLAGS = tuple(f for f in _FLAGS if f not in ("--faults", "--round-deadline"))
_REPORT_FLAGS = ("--quick", "--seed", "--rounds", "--log-level")
_INFO_FLAGS = ("--quick", "--seed", "--rounds", "--noniid")


def _add_flags(parser: argparse.ArgumentParser, names=tuple(_FLAGS)) -> None:
    for name in names:
        parser.add_argument(name, **_FLAGS[name])


def build_parser() -> argparse.ArgumentParser:
    """Construct the top-level argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description=f"{PAPER_TITLE} ({PAPER_VENUE}) - reproduction CLI",
    )
    parser.add_argument(
        "--version", action="version", version=f"repro {__version__}"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_parser = sub.add_parser("run", help="train one scheme")
    run_parser.add_argument(
        "strategy",
        choices=STRATEGY_NAMES,
        help="scheme to train",
    )
    _add_flags(run_parser)
    run_parser.add_argument(
        "--report",
        action="store_true",
        help="after the run, analyze the recorded trace and print the "
        "per-round/per-device report (requires --trace)",
    )

    for name, help_text in (
        ("fig2", "accuracy comparison of all schemes (paper Fig. 2)"),
        ("table1", "training delay to desired accuracy (paper Table I)"),
    ):
        _add_flags(sub.add_parser(name, help=help_text))
    # Fig. 3's max-frequency side replays the HELCFL run's rounds, which
    # a fault or a deadline cut would have changed: no chaos flags.
    fig3_parser = sub.add_parser("fig3", help="DVFS energy reduction (paper Fig. 3)")
    _add_flags(fig3_parser, _FIG3_FLAGS)
    fig3_parser.set_defaults(faults=None, round_deadline=None)

    report_parser = sub.add_parser(
        "report", help="run the full evaluation (both regimes) and print it"
    )
    _add_flags(report_parser, _REPORT_FLAGS)
    report_parser.add_argument(
        "--output",
        type=str,
        default=None,
        help="also write the text report to this path",
    )

    trace_report = sub.add_parser(
        "trace-report",
        help="analyze a recorded JSONL trace (per-round energy, DVFS "
        "savings, fairness, faults)",
    )
    trace_report.add_argument(
        "paths",
        nargs=1,
        metavar="path",
        help="trace file (.jsonl, .jsonl.gz, or snapshot JSON)",
    )
    trace_analytics.add_flags(trace_report, compare=False)
    trace_report.set_defaults(compare=False)

    trace_compare = sub.add_parser(
        "trace-compare",
        help="diff two recorded traces; exits 1 when the second "
        "regresses past the thresholds",
    )
    trace_compare.add_argument(
        "paths",
        nargs=2,
        metavar="trace",
        help="the baseline, then the candidate trace/snapshot",
    )
    trace_analytics.add_flags(trace_compare, report=False)
    trace_compare.set_defaults(compare=True)

    campaign = sub.add_parser(
        "campaign",
        help="declarative multi-run campaigns with crash recovery",
    )
    campaign_sub = campaign.add_subparsers(
        dest="campaign_command", required=True
    )

    campaign_run = campaign_sub.add_parser(
        "run",
        help="execute a campaign spec with the fault-tolerant pool",
    )
    campaign_run.add_argument("spec", help="campaign spec JSON file")
    campaign_run.add_argument(
        "--dir",
        required=True,
        metavar="DIR",
        help="campaign directory (manifest, per-run artifacts, "
        "aggregate)",
    )
    campaign_run.add_argument(
        "--resume",
        action="store_true",
        help="skip completed runs and continue interrupted ones from "
        "their checkpoints; the finished aggregate is bitwise "
        "identical to an uninterrupted campaign's",
    )
    campaign_run.add_argument(
        "--pool-workers", type=int, default=None, metavar="N",
        help="concurrent worker processes (default: the spec's)",
    )
    campaign_run.add_argument(
        "--max-retries", type=int, default=None, metavar="N",
        help="requeues per run before giving up (default: the spec's)",
    )
    campaign_run.add_argument(
        "--run-timeout", type=float, default=None, metavar="SECONDS",
        help="kill and requeue a worker alive past this wall-clock "
        "bound (default: no bound)",
    )
    campaign_run.add_argument(
        "--log-level",
        choices=("debug", "info", "warning", "error"),
        default=None,
        help="enable library logging on stderr at this level; also "
        "forwarded into every worker process",
    )
    campaign_run.add_argument(
        "--no-spans",
        action="store_true",
        help="disable span/resource telemetry (no campaign-trace.jsonl, "
        "simulation-only run traces); results are identical either way",
    )

    campaign_status = campaign_sub.add_parser(
        "status",
        help="print one frame of the campaign's per-run progress, "
        "attempts, elapsed time and notes",
    )
    campaign_status.add_argument(
        "dir", metavar="DIR", help="campaign directory"
    )

    campaign_watch = campaign_sub.add_parser(
        "watch",
        help="live-monitor a running campaign (read-only: progress "
        "bars, retries, throughput, ETA)",
    )
    campaign_watch.add_argument(
        "dir", metavar="DIR", help="campaign directory"
    )
    campaign_watch.add_argument(
        "--interval", type=float, default=2.0, metavar="SECONDS",
        help="refresh cadence (default: 2.0)",
    )

    campaign_compare = campaign_sub.add_parser(
        "compare",
        help="diff two campaign aggregates; exits 1 on regression",
    )
    campaign_compare.add_argument("base", help="baseline aggregate.json")
    campaign_compare.add_argument("other", help="candidate aggregate.json")
    trace_analytics.add_threshold_flags(campaign_compare)

    info_parser = sub.add_parser("info", help="print resolved settings")
    _add_flags(info_parser, _INFO_FLAGS)
    return parser


def _settings_from(args: argparse.Namespace) -> ExperimentSettings:
    overrides = {"seed": args.seed}
    if args.rounds is not None:
        overrides["rounds"] = args.rounds
    if args.quick:
        return ExperimentSettings.quick(**overrides)
    return ExperimentSettings(**overrides)


def _backend_kwargs(args: argparse.Namespace) -> dict:
    return {"backend": args.backend, "workers": args.workers}


def _faults_from(args: argparse.Namespace):
    """Load the fault plan the flags ask for (None when chaos is off)."""
    if not args.faults:
        return None
    from repro.faults import FaultPlan

    plan = FaultPlan.load(args.faults)
    print(
        f"loaded fault plan {args.faults} "
        f"(seed={plan.seed}, {len(plan.faults)} fault spec(s))"
    )
    return plan


def _chaos_kwargs(args: argparse.Namespace) -> dict:
    """Fault/deadline keyword arguments for the experiment runners."""
    overrides = {}
    if args.round_deadline is not None:
        overrides["round_deadline_s"] = args.round_deadline
    return {
        "faults": _faults_from(args),
        "config_overrides": overrides or None,
    }


def _observer_from(args: argparse.Namespace):
    """Build the run observer the flags ask for (None when untraced)."""
    from repro.obs import RunObserver, configure_logging

    if args.log_level:
        configure_logging(args.log_level.upper())
    if args.trace:
        return RunObserver.to_path(
            args.trace, spans_enabled=not args.no_spans
        )
    return None


def _finish_trace(observer, args: argparse.Namespace) -> None:
    """Close the trace sink and report where the events went (the
    per-stage breakdown is ``--report``'s span self-time table)."""
    if observer is None:
        return
    observer.close()
    print(f"saved trace to {args.trace} ({observer.sink.events_written} events)")


def _cmd_run(args: argparse.Namespace) -> int:
    settings = _settings_from(args)
    if args.report and not args.trace:
        print("error: --report requires --trace PATH", file=sys.stderr)
        return 2
    label = strategy_labels().get(args.strategy, args.strategy)
    print(
        f"Training {label} ({'non-IID' if args.noniid else 'IID'}) "
        f"[backend={args.backend}] ..."
    )
    observer = _observer_from(args)
    try:
        history = run_strategy(
            args.strategy,
            settings,
            iid=not args.noniid,
            observer=observer,
            **_backend_kwargs(args),
            **_chaos_kwargs(args),
        )
    finally:
        _finish_trace(observer, args)
    print(f"  rounds executed      {len(history)}")
    print(f"  stop reason          {history.stop_reason}")
    print(f"  best accuracy        {100 * history.best_accuracy:.2f}%")
    print(f"  final accuracy       {100 * history.final_accuracy:.2f}%")
    print(f"  simulated time       {history.total_time / 60:.2f} min")
    print(f"  training energy      {history.total_energy:.3f} J")
    print(
        f"  population coverage  "
        f"{100 * history.coverage(settings.num_users):.0f}%"
    )
    if args.output:
        export.save_history(history, args.output)
        print(f"saved history to {args.output}")
    if args.report:
        print()
        return main(["trace-report", args.trace])
    return 0


_ARTIFACTS = {
    # command: (schemes swept, derivation from the sweep, formatter, saver)
    "fig2": (PAPER_STRATEGIES, lambda fig2: fig2, format_fig2_table, export.save_fig2),
    "table1": (PAPER_STRATEGIES, derive_table1, format_table1, export.save_table1),
    "fig3": (("helcfl",), derive_fig3, format_fig3_table, export.save_fig3),
}


def _cmd_artifact(args: argparse.Namespace) -> int:
    """One Fig. 2 sweep, then the command's artifact read off it."""
    strategies, derive, render, save = _ARTIFACTS[args.command]
    settings = _settings_from(args)
    observer = _observer_from(args)
    try:
        fig2 = run_fig2(
            settings,
            iid=not args.noniid,
            strategies=strategies,
            observer=observer,
            **_backend_kwargs(args),
            **_chaos_kwargs(args),
        )
    finally:
        _finish_trace(observer, args)
    result = derive(fig2)
    print(render(result))
    if args.output:
        save(result, args.output)
        print(f"saved artifact to {args.output}")
    return 0


def _cmd_info(args: argparse.Namespace) -> int:
    settings = _settings_from(args)
    print(f"repro {__version__} - {PAPER_TITLE} ({PAPER_VENUE})")
    print(f"partition: {'non-IID' if args.noniid else 'IID'}")
    for field in dataclasses.fields(settings):
        print(f"  {field.name:24s} {getattr(settings, field.name)}")
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    from repro.experiments.report import generate_report

    if args.log_level:
        from repro.obs import configure_logging

        configure_logging(args.log_level.upper())
    settings = _settings_from(args)
    text = generate_report(settings)
    print(text)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(text + "\n")
        print(f"saved report to {args.output}")
    return 0


def _cmd_campaign_run(args: argparse.Namespace) -> int:
    from repro.campaign import (
        STATUS_DONE,
        CampaignManifest,
        CampaignPool,
        CampaignSpec,
        write_aggregate,
    )

    if args.log_level:
        from repro.obs import configure_logging

        configure_logging(args.log_level.upper())
    spec = CampaignSpec.load(args.spec)
    manifest = CampaignManifest.create(args.dir, spec)
    print(
        f"campaign {spec.name}: {len(manifest.runs)} run(s) "
        f"({'resume' if args.resume else 'fresh'})"
    )
    pool = CampaignPool(
        manifest,
        pool_workers=args.pool_workers,
        max_retries=args.max_retries,
        run_timeout_s=args.run_timeout,
        log_level=args.log_level.upper() if args.log_level else None,
        spans=not args.no_spans,
    )
    statuses = pool.run(resume=args.resume)
    failed = sorted(
        run_id
        for run_id, status in statuses.items()
        if status != STATUS_DONE
    )
    for run_id in statuses:
        print(f"  {run_id:32s} {statuses[run_id]}")
    if failed:
        print(
            f"error: {len(failed)} run(s) did not finish: "
            f"{', '.join(failed)}",
            file=sys.stderr,
        )
        return 1
    path = write_aggregate(manifest)
    print(f"saved aggregate to {path}")
    return 0


def _cmd_campaign_status(args: argparse.Namespace) -> int:
    import time

    from repro.campaign import (
        CampaignManifest,
        render_snapshot,
        snapshot_campaign,
    )

    manifest = CampaignManifest.open(args.dir)
    print(render_snapshot(snapshot_campaign(manifest, time.time())))
    return 0


def _cmd_campaign_watch(args: argparse.Namespace) -> int:
    from repro.campaign import watch

    return watch(args.dir, interval_s=args.interval)


def _cmd_campaign_compare(args: argparse.Namespace) -> int:
    from repro.campaign import compare_campaigns, load_aggregate
    from repro.obs.analysis import render_comparison

    comparisons, regressed = compare_campaigns(
        load_aggregate(args.base),
        load_aggregate(args.other),
        thresholds=trace_analytics.thresholds_from(args),
    )
    for comparison in comparisons:
        print(render_comparison(comparison))
        print()
    print(
        f"campaign comparison: {len(comparisons)} run(s) compared, "
        f"{'REGRESSED' if regressed else 'ok'}"
    )
    return 1 if regressed else 0


_CAMPAIGN_COMMANDS = {
    "run": _cmd_campaign_run,
    "status": _cmd_campaign_status,
    "watch": _cmd_campaign_watch,
    "compare": _cmd_campaign_compare,
}


def _cmd_campaign(args: argparse.Namespace) -> int:
    return _CAMPAIGN_COMMANDS[args.campaign_command](args)


_COMMANDS = {
    "run": _cmd_run,
    "fig2": _cmd_artifact,
    "table1": _cmd_artifact,
    "fig3": _cmd_artifact,
    "report": _cmd_report,
    "trace-report": trace_analytics.run,
    "trace-compare": trace_analytics.run,
    "campaign": _cmd_campaign,
    "info": _cmd_info,
}


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code.

    A bad document or option value (any
    :class:`~repro.errors.ReproError`, or a named file that does not
    exist) is one ``error: ...`` line on stderr and exit code 2, never
    a traceback.
    """
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (ReproError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
