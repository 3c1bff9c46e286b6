"""Shared base for the cross-file dataflow rules (REP008, REP009, REP011).

A :class:`DataflowRule` runs in phase 2 of the engine: it still reports
against one file at a time (findings need a path and a line), but its
:meth:`analyses` see the whole project through the
:class:`~repro.checks.project.ProjectIndex` attached to the context —
resolved imports, callee signatures, and chased return facts. That is
what lets a rule connect a scratch buffer produced in ``repro.nn`` to a
store in ``repro.fl``, or a raw generator built in one module to the
``rng`` parameter of a selection function in ``repro.core``.
"""

from __future__ import annotations

from typing import Iterator, Optional, Tuple

from repro.checks.context import ModuleContext
from repro.checks.project import (
    FunctionAnalysis,
    ProjectIndex,
    build_resolver,
    iter_function_analyses,
)
from repro.checks.rules.base import Rule

__all__ = ["DataflowRule"]


class DataflowRule(Rule):
    """A rule that consumes the phase-1 project index.

    Subclasses implement :meth:`check` as usual and iterate
    :meth:`analyses` for the per-function dataflow facts.
    """

    needs_index = True

    def applies(self, ctx: ModuleContext) -> bool:
        """Library code only, and only once an index is attached."""
        return not ctx.is_test and ctx.index is not None

    def index(self, ctx: ModuleContext) -> ProjectIndex:
        """The project index the engine attached to ``ctx``."""
        return ctx.index

    def analyses(
        self, ctx: ModuleContext
    ) -> Iterator[Tuple[FunctionAnalysis, Optional[str]]]:
        """Yield ``(analysis, class_name)`` per function, then the
        module-level statement analysis as ``("<module>", None)``."""
        key = ctx.module or f"<file:{ctx.path}>"
        resolver = build_resolver(
            ctx.tree, key, is_package=ctx.path.endswith("__init__.py")
        )
        yield from iter_function_analyses(ctx.tree, resolver, index=ctx.index)
        yield FunctionAnalysis(ctx.tree, resolver, index=ctx.index), None
