"""Rule registry: every shipped rule, addressable by id."""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional

from repro.checks.rules.aliasing import BufferAliasingRule
from repro.checks.rules.base import Rule
from repro.checks.rules.determinism import DeterminismRule
from repro.checks.rules.rng_provenance import RngProvenanceRule
from repro.checks.rules.shm_lifecycle import ShmLifecycleRule
from repro.checks.rules.span_lifecycle import SpanLifecycleRule
from repro.checks.rules.suppression import SuppressionHygieneRule
from repro.errors import ConfigurationError

__all__ = ["ALL_RULES", "get_rules", "Rule"]

ALL_RULES: Dict[str, type] = {
    rule_cls.rule_id: rule_cls
    for rule_cls in (
        DeterminismRule,
        BufferAliasingRule,
        ShmLifecycleRule,
        RngProvenanceRule,
        SuppressionHygieneRule,
        SpanLifecycleRule,
    )
}
"""Mapping from rule id to rule class, in id order."""


def get_rules(only: Optional[Iterable[str]] = None) -> List[Rule]:
    """Instantiate rules, optionally restricted to the ids in ``only``.

    Raises:
        ConfigurationError: when ``only`` names an unknown rule id.
    """
    if only is None:
        return [cls() for cls in ALL_RULES.values()]
    selected: List[Rule] = []
    for rule_id in only:
        key = rule_id.strip().upper()
        if key not in ALL_RULES:
            raise ConfigurationError(
                f"unknown rule id {rule_id!r}; known: {sorted(ALL_RULES)}"
            )
        selected.append(ALL_RULES[key]())
    return selected
