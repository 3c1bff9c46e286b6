"""REP006 — no per-device Python loops in population-scale hot paths.

The scheduler core (``repro.core``) and the TDMA timeline simulator
are the per-round inner loops: everything in them runs once per round
for fleets the :class:`~repro.devices.DevicePopulation` API sizes at
Q ≈ 10⁵–10⁶ users. A Python ``for device in devices`` loop there turns
an O(Q) numpy expression back into O(Q) interpreter dispatch and
silently undoes the struct-of-arrays redesign — the cost only shows up
at population scale, which unit tests never reach.

The hot paths iterate positions (``for rank in range(n)``) only where
the math is inherently sequential (Algorithm 3's finish-time
recursion); those are O(selected), not O(Q), and don't bind device
objects. The per-device pseudocode the parity tests diff the array
code against lives in ``tests/oracles``, where this rule does not
apply; the shipped hot paths carry no REP006 suppression, and a
meta-test keeps it that way.
"""

from __future__ import annotations

import ast
from typing import Iterator, Optional, Set

from repro.checks.context import ModuleContext
from repro.checks.findings import Finding
from repro.checks.rules.base import Rule

__all__ = ["HotPathLoopRule"]

# Loop variables that conventionally bind one device object.
_DEVICE_TARGETS = frozenset({"device", "dev", "user"})

# Bare names that conventionally hold device sequences.
_DEVICE_SEQUENCES = frozenset(
    {"devices", "selected", "fleet", "users", "population", "ordered"}
)

# Wrappers that iterate their first argument unchanged.
_TRANSPARENT_CALLS = frozenset(
    {"sorted", "enumerate", "list", "tuple", "reversed"}
)

_HOT_MODULES_EXACT = frozenset({"repro.core", "repro.network.tdma"})
_HOT_MODULE_PREFIX = "repro.core."

_MESSAGE = (
    "per-device Python loop over {what!r} in a population-scale hot "
    "path; evaluate over DevicePopulation arrays instead (scalar "
    "reference code belongs in tests/oracles, not here)"
)


class HotPathLoopRule(Rule):
    """Hot paths stay array-based; scalar oracles live in tests/."""

    rule_id = "REP006"
    title = "population scale: no per-device loops in scheduler hot paths"
    rationale = (
        "repro.core and the TDMA simulator run once per round over the "
        "whole fleet; a Python for-loop over devices there is O(Q) "
        "interpreter dispatch that defeats the DevicePopulation "
        "struct-of-arrays design at Q ~ 1e5-1e6. Scalar parity oracles "
        "live under tests/oracles, outside the rule's scope."
    )

    def applies(self, ctx: ModuleContext) -> bool:
        """Scheduler core and the TDMA simulator, library code only."""
        if ctx.is_test or ctx.module is None:
            return False
        return (
            ctx.module in _HOT_MODULES_EXACT
            or ctx.module.startswith(_HOT_MODULE_PREFIX)
        )

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        """Flag for-loops and comprehensions iterating device objects."""
        for node in ast.walk(ctx.tree):
            if isinstance(node, (ast.For, ast.AsyncFor)):
                what = self._loop_offence(node.target, node.iter)
                if what is not None:
                    yield self.finding(ctx, node, _MESSAGE.format(what=what))
            elif isinstance(
                node, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)
            ):
                for comp in node.generators:
                    what = self._loop_offence(comp.target, comp.iter)
                    if what is not None:
                        yield self.finding(
                            ctx, node, _MESSAGE.format(what=what)
                        )
                        break

    def _loop_offence(
        self, target: ast.AST, iterable: ast.AST
    ) -> Optional[str]:
        """The offending name when the loop binds devices, else None."""
        sequence = _device_sequence_name(iterable)
        if sequence is not None:
            return sequence
        bound = _target_names(target) & _DEVICE_TARGETS
        if bound:
            return sorted(bound)[0]
        return None


def _target_names(target: ast.AST) -> Set[str]:
    """All plain names a loop target binds (handles tuple unpacking)."""
    names: Set[str] = set()
    for node in ast.walk(target):
        if isinstance(node, ast.Name):
            names.add(node.id)
    return names


def _device_sequence_name(iterable: ast.AST) -> Optional[str]:
    """The device-sequence name ``iterable`` walks, unwrapping
    ``sorted``/``enumerate``/``list``/``tuple``/``reversed``."""
    node = iterable
    while (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id in _TRANSPARENT_CALLS
        and node.args
    ):
        node = node.args[0]
    if isinstance(node, ast.Name) and node.id in _DEVICE_SEQUENCES:
        return node.id
    return None
