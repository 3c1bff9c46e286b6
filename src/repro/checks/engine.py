"""Check engine: discover files, index the project, run rules.

The engine runs in two phases:

* **phase 1** parses every file, runs the per-file rules (the ones with
  ``needs_index = False``), and condenses each module into a
  serializable :class:`~repro.checks.project.ModuleSummary`;
* **phase 2** aggregates the summaries into a
  :class:`~repro.checks.project.ProjectIndex` and re-visits every file
  with the cross-file :class:`DataflowRule` family, the index attached
  to the context.

Both phases are incrementally cached (``cache_path``): phase-1 results
are keyed by each file's content hash, phase-2 results by the content
hash *plus* the index fingerprint — so editing one module re-analyzes
only that file unless its public summary changed, and a warm run is
guaranteed to reproduce the cold run's findings bit for bit (the
:class:`CheckReport` JSON contains no cache metadata; cache counters
live on the report object only).

:func:`check_paths` is the CLI's workhorse. Unparsable files surface
as ``REP000`` findings rather than crashing the run, so one syntax
error doesn't hide every other finding.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
from dataclasses import dataclass
from pathlib import Path
from typing import (
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
)

from repro.checks.context import ModuleContext, build_context
from repro.checks.findings import Finding
from repro.checks.project import ModuleSummary, ProjectIndex, summarize_module
from repro.checks.rules import get_rules
from repro.checks.rules.base import Rule

__all__ = [
    "CheckReport",
    "DEFAULT_CACHE_PATH",
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

DEFAULT_CACHE_PATH = ".repro-checks-cache.json"
"""Where ``--cache`` (without an argument) keeps the incremental state."""

_CACHE_SCHEMA = 1


@dataclass(frozen=True)
class CheckReport:
    """The outcome of one checker run.

    Attributes:
        findings: surviving findings, sorted by location.
        suppressed: findings silenced by ``# repro: allow[...]``
            comments (kept for reporting).
        files_checked: number of files parsed and rule-checked.
        cache_hits: files whose phase-1 analysis was served from the
            incremental cache (diagnostic only — deliberately absent
            from :meth:`to_dict` so cold and warm runs emit identical
            JSON).
    """

    findings: Tuple[Finding, ...]
    suppressed: Tuple[Finding, ...] = ()
    files_checked: int = 0
    cache_hits: int = 0

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


# -- incremental cache ----------------------------------------------------
def _hash_source(source: str) -> str:
    return hashlib.sha256(source.encode("utf-8")).hexdigest()


def _load_cache(cache_path, rules_key: List[str]) -> Dict[str, dict]:
    """File records from a previous run, or ``{}`` when unusable."""
    try:
        data = json.loads(Path(cache_path).read_text(encoding="utf-8"))
    except (OSError, ValueError):
        return {}
    if not isinstance(data, dict) or data.get("schema") != _CACHE_SCHEMA:
        return {}
    if data.get("rules") != rules_key:
        return {}
    files = data.get("files")
    return files if isinstance(files, dict) else {}


def _save_cache(cache_path, rules_key: List[str], files: Dict[str, dict]) -> None:
    payload = {
        "schema": _CACHE_SCHEMA,
        "rules": rules_key,
        "files": files,
    }
    tmp = f"{cache_path}.tmp"
    try:
        with open(tmp, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, sort_keys=True)
        os.replace(tmp, cache_path)
    except OSError:
        # A read-only checkout degrades to a cold run, never a failure.
        try:
            os.unlink(tmp)
        except OSError:
            pass


def _pack(kept: Sequence[Finding], silenced: Sequence[Finding]) -> dict:
    return {
        "findings": [f.to_dict() for f in kept],
        "suppressed": [f.to_dict() for f in silenced],
    }


def _unpack(packed: dict):
    return (
        [Finding.from_dict(d) for d in packed.get("findings", [])],
        [Finding.from_dict(d) for d in packed.get("suppressed", [])],
    )


class _FileState:
    """One file's journey through the two phases."""

    def __init__(self, key: str, source: str, record: dict) -> None:
        self.key = key
        self.source = source
        self.record = record
        self.ctx: Optional[ModuleContext] = None

    def context(self) -> ModuleContext:
        """(Re)build the parse context; phase 2 calls this lazily so a
        cache-hit file is only re-parsed when the project changed."""
        if self.ctx is None:
            self.ctx = build_context(self.key, self.source)
        return self.ctx


def check_paths(
    paths: Sequence,
    *,
    rules: Optional[Sequence[str]] = None,
    cache_path: Optional[str] = None,
) -> CheckReport:
    """Check every Python file under ``paths``; return the report.

    Args:
        paths: files and/or directories to expand.
        rules: restrict to these rule ids (default: all shipped rules).
        cache_path: JSON file holding incremental state between runs;
            ``None`` disables caching. Warm runs produce reports whose
            :meth:`CheckReport.to_dict` is byte-identical to a cold run.
    """
    rule_objs = get_rules(rules)
    phase1_rules = [r for r in rule_objs if not r.needs_index]
    phase2_rules = [r for r in rule_objs if r.needs_index]
    rules_key = sorted(r.rule_id for r in rule_objs)
    cache = _load_cache(cache_path, rules_key) if cache_path else {}

    kept: List[Finding] = []
    silenced: List[Finding] = []
    states: List[_FileState] = []
    files_checked = 0
    cache_hits = 0

    # Phase 1: per-file rules + module summaries, content-hash cached.
    for file_path in iter_python_files(paths):
        files_checked += 1
        key = str(file_path)
        try:
            source = file_path.read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError) as exc:
            kept.append(_syntax_finding(key, exc))
            continue
        digest = _hash_source(source)
        cached = cache.get(key)
        if cached is not None and cached.get("hash") == digest:
            cache_hits += 1
            states.append(_FileState(key, source, dict(cached)))
            continue
        record = {"hash": digest, "summary": None, "phase2": None}
        state = _FileState(key, source, record)
        try:
            ctx = state.context()
        except SyntaxError as exc:
            record["phase1"] = _pack([_syntax_finding(key, exc)], [])
        else:
            record["summary"] = summarize_module(
                ctx.tree,
                ctx.module,
                key,
                is_package=file_path.name == "__init__.py",
            ).to_dict()
            record["phase1"] = _pack(*_run_rules(ctx, phase1_rules))
        states.append(state)

    # Phase 2: aggregate summaries, run the dataflow rules against the
    # project index; results are valid while the fingerprint holds.
    index = ProjectIndex(
        ModuleSummary.from_dict(state.record["summary"])
        for state in states
        if state.record["summary"] is not None
    )
    fingerprint = index.fingerprint
    for state in states:
        record = state.record
        if record["summary"] is None:
            record["phase2"] = {
                "fingerprint": fingerprint,
                "findings": [],
                "suppressed": [],
            }
        elif (
            not record.get("phase2")
            or record["phase2"].get("fingerprint") != fingerprint
        ):
            ctx = dataclasses.replace(state.context(), index=index)
            packed = _pack(*_run_rules(ctx, phase2_rules))
            packed["fingerprint"] = fingerprint
            record["phase2"] = packed
        for packed in (record["phase1"], record["phase2"]):
            file_kept, file_silenced = _unpack(packed)
            kept.extend(file_kept)
            silenced.extend(file_silenced)

    if cache_path is not None:
        _save_cache(
            cache_path,
            rules_key,
            {state.key: state.record for state in states},
        )
    return CheckReport(
        findings=tuple(sorted(kept)),
        suppressed=tuple(sorted(silenced)),
        files_checked=files_checked,
        cache_hits=cache_hits,
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
