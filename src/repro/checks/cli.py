"""Command-line entry point: ``python -m repro.checks [paths]``.

Exit codes: ``0`` clean, ``1`` at least one error-severity finding,
``2`` usage or I/O error.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional, Sequence

from repro.checks.engine import CheckReport, check_paths
from repro.checks.rules import ALL_RULES
from repro.errors import ConfigurationError

__all__ = ["main", "build_parser"]

_DEFAULT_PATHS = ["src/repro"]


def _rule_names(needs_index: bool) -> str:
    return ", ".join(
        f"{cls.title.split(':')[0]} ({rule_id})"
        for rule_id, cls in ALL_RULES.items()
        if cls.needs_index == needs_index
    )


def build_parser() -> argparse.ArgumentParser:
    """Build the ``python -m repro.checks`` argument parser."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.checks",
        description=(
            "Domain-aware static analysis in two phases: per-file rules "
            f"— {_rule_names(False)} — then cross-file dataflow rules "
            f"over a project index: {_rule_names(True)}. "
            "Suppress a finding inline with "
            "'# repro: allow[<rule-id>] justification' (the justification "
            "is mandatory; REP012 itself cannot be suppressed)."
        ),
        epilog=(
            "exit codes: 0 = no error-severity findings; "
            "1 = at least one error-severity finding; "
            "2 = usage or I/O error (unknown rule id, missing path, "
            "unwritable --output)."
        ),
    )
    parser.add_argument(
        "paths",
        nargs="*",
        default=_DEFAULT_PATHS,
        help="files or directories to check (default: src/repro)",
    )
    parser.add_argument(
        "--format",
        choices=("human", "json", "github"),
        default="human",
        help=(
            "report format (default: human); 'github' emits workflow "
            "commands that surface as inline PR annotations"
        ),
    )
    parser.add_argument(
        "--output",
        metavar="FILE",
        default=None,
        help="write the report to FILE instead of stdout",
    )
    parser.add_argument(
        "--rules",
        metavar="IDS",
        default=None,
        help="comma-separated rule ids to run (default: all)",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print every rule id, title, and rationale, then exit",
    )
    return parser


def _list_rules() -> str:
    lines: List[str] = []
    for rule_id, rule_cls in ALL_RULES.items():
        lines.append(f"{rule_id}  {rule_cls.title}")
        lines.append(f"        {rule_cls.rationale}")
    return "\n".join(lines)


def _emit(text: str, output: Optional[str]) -> None:
    if output is None:
        print(text)
    else:
        with open(output, "w", encoding="utf-8") as handle:
            handle.write(text + "\n")


def _render(report: CheckReport, fmt: str) -> str:
    if fmt == "json":
        return json.dumps(report.to_dict(), indent=2, sort_keys=True)
    if fmt == "github":
        lines = [f.render_github() for f in report.findings]
        lines.append(
            f"{len(report.findings)} finding"
            f"{'' if len(report.findings) == 1 else 's'} in "
            f"{report.files_checked} files"
        )
        return "\n".join(lines)
    return "\n".join(report.render_lines())


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Run the checker; return the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.list_rules:
        print(_list_rules())
        return 0
    rule_ids = (
        [r for r in args.rules.split(",") if r.strip()]
        if args.rules
        else None
    )
    try:
        report = check_paths(args.paths, rules=rule_ids)
    except ConfigurationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        _emit(_render(report, args.format), args.output)
    except OSError as exc:
        print(f"error: cannot write report: {exc}", file=sys.stderr)
        return 2
    return report.exit_code


if __name__ == "__main__":
    sys.exit(main())
