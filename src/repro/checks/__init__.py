"""Domain-aware static analysis for the reproduction's invariants.

The repo's correctness guarantees — seeded randomness, scratch-buffer
lifetimes, shared-memory and span lifecycles — are conventions a
generic linter cannot see. :mod:`repro.checks` makes
them machine-checked, in two phases: per-file AST rules run first,
then :mod:`repro.checks.project` condenses every file into a
:class:`~repro.checks.project.ModuleSummary`, aggregates them into a
:class:`~repro.checks.project.ProjectIndex` (symbols, imports, a
lightweight call graph), and the cross-file dataflow rules re-visit
each file with the whole project in view. Runnable as
``python -m repro.checks [paths]`` with JSON, human, and GitHub-
annotation output and inline ``# repro: allow[<rule-id>]
justification`` suppressions.

Shipped rules:

========  ==============================================================
REP001    determinism — no stdlib ``random``, no legacy
          ``np.random.<fn>`` module-level calls, RNG construction goes
          through :mod:`repro.rng`
REP008    buffer aliasing (cross-file) — ``_scratch_buffer``/``out=``
          arrays never escape their forward/backward call
REP009    shm lifecycle (cross-file) — every owned shared-memory
          acquisition reaches ``close()``/``unlink()`` on all paths
REP011    RNG provenance (cross-file) — generators reaching
          selection/faults/quantization trace to :mod:`repro.rng`
REP012    suppression hygiene — every ``allow[...]`` comment names
          shipped rules and carries a justification (REP012 itself
          cannot be suppressed)
REP013    span lifecycle — every ``observer.span(...)`` open reaches
          ``.end()`` on all paths (``with``, same depth, ``finally``,
          or explicit handoff to a new owner)
========  ==============================================================
"""

from repro.checks.engine import (
    CheckReport,
    check_paths,
    iter_python_files,
)
from repro.checks.findings import SEVERITIES, Finding
from repro.checks.project import ModuleSummary, ProjectIndex, summarize_module
from repro.checks.rules import ALL_RULES, get_rules

__all__ = [
    "Finding",
    "SEVERITIES",
    "CheckReport",
    "check_paths",
    "iter_python_files",
    "ModuleSummary",
    "ProjectIndex",
    "summarize_module",
    "ALL_RULES",
    "get_rules",
]
