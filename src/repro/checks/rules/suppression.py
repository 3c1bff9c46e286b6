"""REP012 — every suppression comment names shipped rules and says why.

``# repro: allow[<rule-id>] <why>`` is the escape hatch for deliberate
rule violations (a same-step scratch cache). The hatch only works as
documentation if the ``<why>`` is actually there: a bare ``allow[...]``
silences a checker error while telling the next reader nothing. And it
only documents something if the id still names a shipped rule: an
``allow[...]`` for a deleted rule (or a typo) is a stale comment that
silences nothing. This rule makes
both forms findings — and is the one rule that cannot be suppressed,
since ``allow[REP012] because I said so`` would defeat the point
(a justified REP012 suppression is a contradiction in terms: writing
the justification *is* the fix).
"""

from __future__ import annotations

import re
from typing import Iterator

from repro.checks.context import ModuleContext
from repro.checks.findings import Finding
from repro.checks.rules.base import Rule

__all__ = ["SuppressionHygieneRule"]

# The full suppression comment: bracket ids, then the justification.
_ALLOW_RE = re.compile(
    r"#\s*repro:\s*allow\[([A-Za-z0-9_*,\s-]+)\]\s*(?P<why>.*)$"
)


class SuppressionHygieneRule(Rule):
    """``# repro: allow[...]`` names known rules and carries a justification."""

    rule_id = "REP012"
    title = "suppression hygiene: allow[] comments name rules and say why"
    rationale = (
        "A suppression is a documented exception; with no justification "
        "it is just a silenced error, and with an id that names no "
        "shipped rule it silences nothing at all. The text after the "
        "bracket is the record of why the violation is intentional, so "
        "its absence is itself a violation — and not a suppressible one."
    )
    suppressible = False

    def applies(self, ctx: ModuleContext) -> bool:
        """Everywhere suppressions work — including tests and benchmarks."""
        return True

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        """Flag ``allow[...]`` comments with an unknown id or no reason."""
        # Imported here: the registry imports this module.
        from repro.checks.rules import ALL_RULES

        for lineno, line in enumerate(ctx.source.splitlines(), start=1):
            match = _ALLOW_RE.search(line)
            if match is None:
                continue
            ids = match.group(1).strip()
            tokens = [token.strip() for token in ids.split(",")]
            unknown = [
                token
                for token in tokens
                if token and token != "*" and token.upper() not in ALL_RULES
            ]
            if unknown:
                yield self._at(
                    ctx,
                    lineno,
                    match,
                    f"suppression 'allow[{ids}]' names no shipped rule: "
                    f"{', '.join(unknown)}; delete the stale id",
                )
            if not match.group("why").strip():
                yield self._at(
                    ctx,
                    lineno,
                    match,
                    f"suppression 'allow[{ids}]' has no justification; "
                    "state why the violation is intentional after the "
                    "closing bracket",
                )

    def _at(self, ctx: ModuleContext, lineno: int, match, message: str) -> Finding:
        return Finding(
            path=ctx.path,
            line=lineno,
            col=match.start(),
            rule_id=self.rule_id,
            message=message,
            severity=self.severity,
        )
