"""Per-file context handed to every rule: AST, module identity, scope.

The rules are *domain* rules — most only make sense inside the
``repro`` package proper, not in tests or benchmarks (a benchmark may
legitimately read the wall clock; a test may legitimately compare a
float for equality in an assertion). :func:`build_context` therefore
classifies each file:

* ``module`` — the dotted module name when the file sits inside an
  importable ``repro`` package tree (walking up through ``__init__.py``
  parents), else ``None``;
* ``is_test`` — true for anything under a ``tests``/``benchmarks``
  directory or named ``test_*.py``/``bench_*.py``/``conftest.py``.

Tests of the checker itself override both via :func:`build_context`'s
keyword arguments, so fixture snippets can impersonate in-domain
modules.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, FrozenSet, Optional, Tuple

__all__ = ["ModuleContext", "build_context", "parse_suppressions"]

_TEST_DIRS = frozenset({"tests", "benchmarks"})
_TEST_PREFIXES = ("test_", "bench_")

_SUPPRESS_RE = re.compile(r"#\s*repro:\s*allow\[([A-Za-z0-9_*,\s-]+)\]")


@dataclass(frozen=True)
class ModuleContext:
    """Everything a rule needs to inspect one source file.

    Attributes:
        path: the file path as reported in findings.
        source: the file's text.
        tree: the parsed :class:`ast.Module`.
        module: dotted module name (``"repro.fl.trainer"``) when the
            file belongs to a ``repro`` package tree, else ``None``.
        is_test: whether the file is test/benchmark code (domain rules
            skip those).
        suppressions: mapping from line number to the rule ids allowed
            on that line (``"*"`` allows every rule).
    """

    path: str
    source: str
    tree: ast.Module
    module: Optional[str] = None
    is_test: bool = False
    suppressions: Dict[int, FrozenSet[str]] = field(default_factory=dict)
    index: Optional[object] = None
    """Phase-2 :class:`repro.checks.project.ProjectIndex`; ``None``
    while phase-1 (per-file) rules run."""

    @property
    def in_repro(self) -> bool:
        """True when the file belongs to the ``repro`` package."""
        return self.module is not None and (
            self.module == "repro" or self.module.startswith("repro.")
        )

    def is_suppressed(self, line: int, rule_id: str) -> bool:
        """Whether ``rule_id`` is allowed on ``line`` by a comment."""
        allowed = self.suppressions.get(line)
        if not allowed:
            return False
        return rule_id in allowed or "*" in allowed


def parse_suppressions(source: str) -> Dict[int, FrozenSet[str]]:
    """Extract ``# repro: allow[<rule-id>]`` comments, by line number.

    The bracket accepts a comma-separated list (``allow[REP001,
    REP008]``) or ``*``; anything after the closing bracket is the
    required human justification and is ignored by the parser.
    """
    table: Dict[int, FrozenSet[str]] = {}
    for lineno, line in enumerate(source.splitlines(), start=1):
        match = _SUPPRESS_RE.search(line)
        if match is None:
            continue
        ids = frozenset(
            token.strip().upper() if token.strip() != "*" else "*"
            for token in match.group(1).split(",")
            if token.strip()
        )
        if ids:
            table[lineno] = ids
    return table


def _resolve_module(path: Path) -> Optional[str]:
    """Best-effort dotted module name for files in a package tree."""
    if path.suffix != ".py":
        return None
    parts = [path.stem] if path.stem != "__init__" else []
    current = path.parent
    while (current / "__init__.py").exists():
        parts.insert(0, current.name)
        parent = current.parent
        if parent == current:
            break
        current = parent
    if not parts:
        return None
    return ".".join(parts)


def _classify_test(path: Path) -> bool:
    parts: Tuple[str, ...] = path.parts
    if any(part in _TEST_DIRS for part in parts[:-1]):
        return True
    name = path.name
    return name == "conftest.py" or name.startswith(_TEST_PREFIXES)


def build_context(
    path,
    source: Optional[str] = None,
    *,
    module: Optional[str] = None,
    is_test: Optional[bool] = None,
) -> ModuleContext:
    """Parse ``path`` (or ``source``) into a :class:`ModuleContext`.

    Args:
        path: file path; read from disk when ``source`` is ``None``.
        source: override the file contents (checker self-tests).
        module: override the dotted module classification.
        is_test: override the test/benchmark classification.

    Raises:
        SyntaxError: when the source does not parse (the engine
            converts this into a ``REP000`` finding).
    """
    path = Path(path)
    if source is None:
        source = path.read_text(encoding="utf-8")
    tree = ast.parse(source, filename=str(path))
    resolved_module = module if module is not None else _resolve_module(path)
    resolved_is_test = is_test if is_test is not None else _classify_test(path)
    return ModuleContext(
        path=str(path),
        source=source,
        tree=tree,
        module=resolved_module,
        is_test=resolved_is_test,
        suppressions=parse_suppressions(source),
    )
