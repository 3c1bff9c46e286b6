"""Fig. 3 — energy-cost reduction via the DVFS frequency determination.

Compares HELCFL with Algorithm 3 against HELCFL at max frequency (the
traditional TDMA behaviour). Because Algorithm 3 changes only device
operating frequencies — never the selection or the training math — the
two runs have *identical* accuracy trajectories, and the comparison
isolates exactly the energy effect the paper plots: joules spent until
each desired accuracy was reached, with and without DVFS. Both runs
come from one Fig. 2 sweep over :data:`FIG3_STRATEGIES` (or any sweep
that includes them, such as :data:`~repro.experiments.fig2.PAPER_STRATEGIES`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro import wire
from repro.errors import ConfigurationError
from repro.experiments.fig2 import Fig2Result
from repro.experiments.table1 import DEFAULT_TARGET_FRACTIONS, derive_table1
from repro.fl.history import TrainingHistory

__all__ = ["Fig3Entry", "Fig3Result", "derive_fig3", "FIG3_STRATEGIES"]

FIG3_STRATEGIES: Tuple[str, ...] = ("helcfl", "helcfl-nodvfs")
"""The two runs Fig. 3 compares: Algorithm 3, then max frequency."""


@wire.record
@dataclass(frozen=True)
class Fig3Entry:
    """One bar pair of Fig. 3.

    Attributes:
        target: the desired accuracy level.
        energy_with_dvfs: joules to reach it with Algorithm 3.
        energy_without_dvfs: joules at max frequency.
        reduction_fraction: relative saving, e.g. 0.58 for the paper's
            58.25%; ``None`` when the target was never reached.
    """

    target: float
    energy_with_dvfs: Optional[float]
    energy_without_dvfs: Optional[float]
    reduction_fraction: Optional[float]


@dataclass
class Fig3Result:
    """DVFS energy study for one partition regime.

    Attributes:
        iid: partition regime.
        entries: one per accuracy target.
        dvfs_history: the Algorithm 3 run.
        max_frequency_history: the max-frequency run.
    """

    iid: bool
    entries: List[Fig3Entry]
    dvfs_history: TrainingHistory
    max_frequency_history: TrainingHistory

    @property
    def total_energy_reduction(self) -> float:
        """Whole-run energy saving fraction (all rounds)."""
        base = self.max_frequency_history.total_energy
        if base <= 0:
            return 0.0
        return (base - self.dvfs_history.total_energy) / base


wire.record(Fig3Result, mutable=True)


def derive_fig3(
    fig2: Fig2Result,
    targets: Optional[Sequence[float]] = None,
    target_fractions: Sequence[float] = DEFAULT_TARGET_FRACTIONS,
) -> Fig3Result:
    """One panel of Fig. 3, read off a Fig. 2 sweep (same regime).

    Args:
        fig2: a sweep that ran both :data:`FIG3_STRATEGIES`.
        targets: explicit absolute accuracy levels; when None, Table
            I's levels: ``target_fractions`` of the DVFS run's ceiling.
        target_fractions: ceiling fractions when ``targets`` is None.
    """
    for key in FIG3_STRATEGIES:
        if key not in fig2.histories:
            raise ConfigurationError(f"fig 3 needs a {key!r} history")
    dvfs, maxf = (fig2.histories[key] for key in FIG3_STRATEGIES)
    entries: List[Fig3Entry] = []
    for target in derive_table1(fig2, targets, target_fractions).targets:
        with_dvfs = dvfs.energy_to_accuracy(target)
        without = maxf.energy_to_accuracy(target)
        if with_dvfs is None or without is None or without <= 0:
            reduction = None
        else:
            reduction = (without - with_dvfs) / without
        entries.append(
            Fig3Entry(
                target=target,
                energy_with_dvfs=with_dvfs,
                energy_without_dvfs=without,
                reduction_fraction=reduction,
            )
        )
    return Fig3Result(
        iid=fig2.iid,
        entries=entries,
        dvfs_history=dvfs,
        max_frequency_history=maxf,
    )
