"""Check engine: discover files, index the project, run rules.

The engine runs in two phases:

* **phase 1** parses every file once, runs the per-file rules (the
  ones with ``needs_index = False``), and condenses each module into a
  :class:`~repro.checks.project.ModuleSummary`;
* **phase 2** aggregates the summaries into a
  :class:`~repro.checks.project.ProjectIndex` and re-visits every
  parsed file with the cross-file :class:`DataflowRule` family, the
  index attached to the context.

Each run starts cold and keeps no state between runs, so a report
depends only on the files it checked.

:func:`check_paths` is the CLI's workhorse. Unparsable files surface
as ``REP000`` findings rather than crashing the run, so one syntax
error doesn't hide every other finding.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.checks.context import ModuleContext, build_context
from repro.checks.findings import Finding
from repro.checks.project import ModuleSummary, ProjectIndex, summarize_module
from repro.checks.rules import get_rules
from repro.checks.rules.base import Rule

__all__ = [
    "CheckReport",
    "check_paths",
    "iter_python_files",
]

_SKIP_DIRS = {
    "__pycache__",
    ".git",
    ".pytest_cache",
    ".ruff_cache",
    "dist",
    "build",
    ".eggs",
}

@dataclass(frozen=True)
class CheckReport:
    """The outcome of one checker run.

    Attributes:
        findings: surviving findings, sorted by location.
        suppressed: findings silenced by ``# repro: allow[...]``
            comments (kept for reporting).
        files_checked: number of files parsed and rule-checked.
    """

    findings: Tuple[Finding, ...]
    suppressed: Tuple[Finding, ...] = ()
    files_checked: int = 0

    @property
    def errors(self) -> Tuple[Finding, ...]:
        """The subset of findings that fail the run."""
        return tuple(f for f in self.findings if f.severity == "error")

    @property
    def exit_code(self) -> int:
        """0 when clean, 1 when any error-severity finding survived."""
        return 1 if self.errors else 0

    def to_dict(self) -> dict:
        """JSON document emitted by ``--format json``."""
        return {
            "version": 1,
            "files_checked": self.files_checked,
            "findings": [f.to_dict() for f in self.findings],
            "suppressed": [f.to_dict() for f in self.suppressed],
        }

    def render_lines(self) -> List[str]:
        """Human-readable report lines."""
        lines = [f.render() for f in self.findings]
        noun = "file" if self.files_checked == 1 else "files"
        summary = (
            f"{len(self.findings)} finding"
            f"{'' if len(self.findings) == 1 else 's'} "
            f"({len(self.suppressed)} suppressed) in "
            f"{self.files_checked} {noun}"
        )
        lines.append(summary)
        return lines


def iter_python_files(paths: Sequence) -> Iterator[Path]:
    """Expand files/directories into a sorted, de-duplicated .py list.

    Raises:
        FileNotFoundError: when a given path does not exist.
    """
    seen = set()
    collected: List[Path] = []
    for raw in paths:
        path = Path(raw)
        if not path.exists():
            raise FileNotFoundError(f"no such path: {path}")
        candidates: Iterable[Path]
        if path.is_dir():
            candidates = sorted(
                p
                for p in path.rglob("*.py")
                if not any(part in _SKIP_DIRS for part in p.parts)
            )
        else:
            candidates = [path]
        for candidate in candidates:
            key = candidate.resolve()
            if key not in seen:
                seen.add(key)
                collected.append(candidate)
    return iter(collected)


def _run_rules(ctx: ModuleContext, rules: Sequence[Rule]):
    kept: List[Finding] = []
    silenced: List[Finding] = []
    for rule in rules:
        if not rule.applies(ctx):
            continue
        for finding in rule.check(ctx):
            if rule.suppressible and ctx.is_suppressed(
                finding.line, finding.rule_id
            ):
                silenced.append(finding)
            else:
                kept.append(finding)
    return kept, silenced


def check_paths(
    paths: Sequence,
    *,
    rules: Optional[Sequence[str]] = None,
) -> CheckReport:
    """Check every Python file under ``paths``; return the report.

    Args:
        paths: files and/or directories to expand.
        rules: restrict to these rule ids (default: all shipped rules).
    """
    rule_objs = get_rules(rules)
    phase1_rules = [r for r in rule_objs if not r.needs_index]
    phase2_rules = [r for r in rule_objs if r.needs_index]

    kept: List[Finding] = []
    silenced: List[Finding] = []
    contexts: List[ModuleContext] = []
    summaries: List[ModuleSummary] = []
    files_checked = 0

    # Phase 1: per-file rules + module summaries.
    for file_path in iter_python_files(paths):
        files_checked += 1
        key = str(file_path)
        try:
            ctx = build_context(key, file_path.read_text(encoding="utf-8"))
        except (OSError, UnicodeDecodeError, SyntaxError) as exc:
            kept.append(_syntax_finding(key, exc))
            continue
        contexts.append(ctx)
        summaries.append(
            summarize_module(
                ctx.tree,
                ctx.module,
                key,
                is_package=file_path.name == "__init__.py",
            )
        )
        file_kept, file_silenced = _run_rules(ctx, phase1_rules)
        kept.extend(file_kept)
        silenced.extend(file_silenced)

    # Phase 2: aggregate the summaries, then run the dataflow rules on
    # every parsed file with the project index attached.
    index = ProjectIndex(summaries)
    for ctx in contexts:
        file_kept, file_silenced = _run_rules(
            dataclasses.replace(ctx, index=index), phase2_rules
        )
        kept.extend(file_kept)
        silenced.extend(file_silenced)

    return CheckReport(
        findings=tuple(sorted(kept)),
        suppressed=tuple(sorted(silenced)),
        files_checked=files_checked,
    )


def _syntax_finding(path: str, exc: Exception) -> Finding:
    line = getattr(exc, "lineno", 0) or 0
    return Finding(
        path=path,
        line=line,
        col=0,
        rule_id="REP000",
        message=f"file does not parse: {exc}",
        severity="error",
    )
