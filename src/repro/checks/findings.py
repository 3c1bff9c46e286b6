"""Structured findings produced by the static-analysis rules."""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigurationError

__all__ = ["SEVERITIES", "Finding"]

SEVERITIES = ("error", "warning")
"""Recognized severities, most severe first. Only ``error`` findings
fail the run; ``warning`` findings are reported but exit 0."""


@dataclass(frozen=True, order=True)
class Finding:
    """One rule violation at one source location.

    Orders by ``(path, line, col, rule_id)`` so reports are stable
    regardless of rule execution order.

    Attributes:
        path: the checked file, as given on the command line.
        line: 1-based source line of the violation.
        col: 0-based column offset.
        rule_id: the rule that fired (e.g. ``"REP001"``).
        message: human-readable description of the violation.
        severity: one of :data:`SEVERITIES`.
    """

    path: str
    line: int
    col: int
    rule_id: str
    message: str
    severity: str = "error"

    def __post_init__(self) -> None:
        if self.severity not in SEVERITIES:
            raise ConfigurationError(
                f"severity must be one of {SEVERITIES}, got {self.severity!r}"
            )
        if self.line < 0:
            raise ConfigurationError(f"line must be non-negative, got {self.line}")

    def to_dict(self) -> dict:
        """JSON-friendly form used by ``--format json``."""
        return {
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "rule": self.rule_id,
            "severity": self.severity,
            "message": self.message,
        }

    def render(self) -> str:
        """One-line human form, ``path:line:col: RULE message``."""
        return f"{self.path}:{self.line}:{self.col}: {self.rule_id} {self.message}"

    def render_github(self) -> str:
        """GitHub Actions workflow-command form (inline PR annotations)."""
        command = "error" if self.severity == "error" else "warning"
        return (
            f"::{command} file={self.path},line={self.line},"
            f"col={self.col + 1},title={self.rule_id}::{self.message}"
        )
