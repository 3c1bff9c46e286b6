"""Table I — training delay to obtain desired accuracy.

For each desired accuracy level, reports each scheme's simulated
training delay until its test accuracy first reached the level, with
``None`` standing for the paper's "✗" (never reached). The table is
read off the Fig. 2 runs. Accuracy levels default to fractions of
HELCFL's achieved ceiling, because the synthetic task's absolute
accuracy scale differs from CIFAR-10 (see EXPERIMENTS.md); explicit
absolute targets can be passed instead.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import ConfigurationError
from repro.experiments.fig2 import Fig2Result

__all__ = ["Table1Result", "derive_table1", "DEFAULT_TARGET_FRACTIONS"]

# Fractions of the reference (HELCFL) ceiling standing in for the
# paper's absolute levels (60/70/80% IID; 40/50/60% non-IID).
DEFAULT_TARGET_FRACTIONS: Tuple[float, ...] = (0.75, 0.85, 0.95)


@dataclass
class Table1Result:
    """Delay-to-accuracy table for one partition regime.

    Attributes:
        iid: partition regime.
        targets: absolute accuracy levels of the columns.
        delays: ``delays[strategy][target]`` — simulated seconds to
            first reach ``target``, or ``None`` for the paper's "✗".
    """

    iid: bool
    targets: Tuple[float, ...]
    delays: Dict[str, Dict[float, Optional[float]]]

    def speedup(
        self, target: float, reference: str = "helcfl", versus: str = "classic"
    ) -> Optional[float]:
        """Paper-style speedup of ``reference`` versus ``versus``.

        The paper reports speedup as ``T_baseline / T_helcfl`` expressed
        in percent (e.g. 275.03%). Returns ``None`` when either scheme
        never reached the target.
        """
        if target not in self.targets:
            raise ConfigurationError(
                f"target {target} not among computed targets {self.targets}"
            )
        ref = self.delays.get(reference, {}).get(target)
        base = self.delays.get(versus, {}).get(target)
        if ref is None or base is None or ref <= 0:
            return None
        return 100.0 * base / ref

    def rows(self) -> List[Tuple[str, List[Optional[float]]]]:
        """Table rows: ``(strategy, [delay per target])``."""
        return [
            (name, [self.delays[name][t] for t in self.targets])
            for name in self.delays
        ]


def derive_table1(
    fig2: Fig2Result,
    targets: Optional[Sequence[float]] = None,
    target_fractions: Sequence[float] = DEFAULT_TARGET_FRACTIONS,
) -> Table1Result:
    """One half of Table I, read off a Fig. 2 sweep (same regime).

    Args:
        fig2: the sweep; every scheme it ran gets a row, and it must
            include ``helcfl``.
        targets: explicit absolute accuracy levels; when None they are
            ``target_fractions`` of HELCFL's best accuracy.
        target_fractions: ceiling fractions used when ``targets`` is
            None.
    """
    if "helcfl" not in fig2.histories:
        raise ConfigurationError("table 1 requires a 'helcfl' run as reference")
    if targets is None:
        ceiling = fig2.histories["helcfl"].best_accuracy
        targets = tuple(round(f * ceiling, 4) for f in target_fractions)
    else:
        targets = tuple(float(t) for t in targets)
    delays: Dict[str, Dict[float, Optional[float]]] = {
        name: {target: history.time_to_accuracy(target) for target in targets}
        for name, history in fig2.histories.items()
    }
    return Table1Result(iid=fig2.iid, targets=targets, delays=delays)
