"""Fig. 3 — energy-cost reduction via the DVFS frequency determination.

Compares HELCFL with Algorithm 3 against HELCFL at max frequency (the
traditional TDMA behaviour). Because Algorithm 3 changes only device
operating frequencies — never the selection or the training math — the
two runs have *identical* accuracy trajectories, and the comparison
isolates exactly the energy effect the paper plots: joules spent until
each desired accuracy was reached, with and without DVFS.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro import wire
from repro.errors import ConfigurationError
from repro.experiments.runner import build_environment, run_strategy
from repro.experiments.settings import ExperimentSettings
from repro.fl.execution import open_backend
from repro.fl.history import TrainingHistory

__all__ = ["Fig3Entry", "Fig3Result", "run_fig3"]


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


def run_fig3(
    settings: Optional[ExperimentSettings] = None,
    iid: bool = True,
    targets: Optional[Sequence[float]] = None,
    target_fractions: Sequence[float] = (0.75, 0.85, 0.95),
    histories: Optional[Dict[str, TrainingHistory]] = None,
    backend=None,
    workers: Optional[int] = None,
    observer=None,
    faults=None,
    config_overrides: Optional[Dict] = None,
) -> Fig3Result:
    """Reproduce one panel of Fig. 3.

    Args:
        settings: experiment settings (paper defaults when None).
        iid: partition regime.
        targets: explicit absolute accuracy levels; derived from the
            DVFS run's ceiling via ``target_fractions`` when None.
        target_fractions: ceiling fractions when ``targets`` is None.
        histories: optionally reuse runs keyed ``"helcfl"`` and
            ``"helcfl-nodvfs"`` (e.g. from a Fig. 2 sweep that included
            both).
        backend: client-execution backend (instance or name) for fresh
            runs; shared by both runs when given by name.
        workers: pool size when ``backend`` is given by name.
        observer: optional :class:`repro.obs.RunObserver` shared by
            both fresh runs.
        faults: optional :class:`repro.faults.FaultPlan` applied to
            both fresh runs (ignored when ``histories`` is supplied).
        config_overrides: keyword overrides for both fresh runs'
            trainer config (ignored when ``histories`` is supplied).

    Returns:
        The panel's :class:`Fig3Result`.
    """
    settings = settings or ExperimentSettings()
    if histories is None:
        environment = build_environment(settings, iid=iid)
        with open_backend(backend, workers=workers) as shared:
            histories = {
                name: run_strategy(
                    name,
                    settings,
                    iid=iid,
                    environment=environment,
                    backend=shared,
                    observer=observer,
                    faults=faults,
                    config_overrides=config_overrides,
                )
                for name in ("helcfl", "helcfl-nodvfs")
            }
    for key in ("helcfl", "helcfl-nodvfs"):
        if key not in histories:
            raise ConfigurationError(f"fig 3 needs a {key!r} history")
    dvfs = histories["helcfl"]
    maxf = histories["helcfl-nodvfs"]

    if targets is None:
        ceiling = dvfs.best_accuracy
        targets = tuple(round(f * ceiling, 4) for f in target_fractions)
    entries: List[Fig3Entry] = []
    for target in targets:
        with_dvfs = dvfs.energy_to_accuracy(float(target))
        without = maxf.energy_to_accuracy(float(target))
        if with_dvfs is None or without is None or without <= 0:
            reduction = None
        else:
            reduction = (without - with_dvfs) / without
        entries.append(
            Fig3Entry(
                target=float(target),
                energy_with_dvfs=with_dvfs,
                energy_without_dvfs=without,
                reduction_fraction=reduction,
            )
        )
    return Fig3Result(
        iid=iid,
        entries=entries,
        dvfs_history=dvfs,
        max_frequency_history=maxf,
    )
