"""Check one in-memory source blob, as the checker's tests need.

:func:`repro.checks.check_paths` reads files; these tests feed the
rules a string and choose how it is classified.
"""

import dataclasses
from typing import Optional, Sequence

from repro.checks.context import build_context
from repro.checks.engine import CheckReport, _run_rules, _syntax_finding
from repro.checks.project import ProjectIndex, summarize_module
from repro.checks.rules import get_rules


def check_source(
    source: str,
    path: str = "<string>",
    *,
    module: Optional[str] = None,
    is_test: bool = False,
    rules: Optional[Sequence[str]] = None,
) -> CheckReport:
    """Run ``rules`` (default: all) over ``source``.

    The blob gets a single-module :class:`ProjectIndex` built from
    itself, so dataflow rules resolve the blob's own functions and
    classes (cross-file behavior is exercised via ``check_paths`` on a
    temporary tree).

    Args:
        source: Python source text.
        path: reported path for findings.
        module: dotted module name to impersonate (scopes domain
            rules); ``None`` leaves path-based classification.
        is_test: classify the blob as test/benchmark code.
        rules: restrict to these rule ids.
    """
    rule_objs = get_rules(rules)
    try:
        ctx = build_context(path, source, module=module, is_test=is_test)
    except SyntaxError as exc:
        return CheckReport(
            findings=(_syntax_finding(path, exc),), files_checked=1
        )
    summary = summarize_module(
        ctx.tree, ctx.module, path, is_package=path.endswith("__init__.py")
    )
    ctx = dataclasses.replace(ctx, index=ProjectIndex([summary]))
    kept, silenced = _run_rules(ctx, rule_objs)
    return CheckReport(
        findings=tuple(sorted(kept)),
        suppressed=tuple(sorted(silenced)),
        files_checked=1,
    )
