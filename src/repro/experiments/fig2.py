"""Fig. 2 — accuracy comparison of HELCFL and the four baselines.

Runs every scheme on the same environment (identical data, partition,
fleet, and model initialization) for both the IID and non-IID settings
and collects the accuracy-versus-round curves, plus the paper's
"highest accuracy" improvement summary (Section VII-B).

:func:`run_fig2` is the only sweep that trains for an artifact: Table I
and Fig. 3 are read off its result
(:func:`~repro.experiments.table1.derive_table1`,
:func:`~repro.experiments.fig3.derive_fig3`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence, Tuple

from repro.errors import ConfigurationError
from repro.experiments.runner import Environment, build_environment, run_strategy
from repro.experiments.settings import ExperimentSettings
from repro.fl.execution import open_backend
from repro.fl.history import TrainingHistory

__all__ = ["Fig2Result", "run_fig2", "PAPER_STRATEGIES"]

PAPER_STRATEGIES: Tuple[str, ...] = ("helcfl", "classic", "fedcs", "fedl", "sl")
"""The whole Section VII sweep: HELCFL and the four baselines. Fig. 3's
max-frequency side is a replay of the HELCFL run, not a scheme."""


@dataclass
class Fig2Result:
    """Accuracy curves for one partition regime.

    Attributes:
        iid: whether this is the IID panel of Fig. 2.
        histories: training history per strategy name.
        environment: the data and fleet every run shared, kept in
            memory for derivations that replay the cost model
            (:func:`~repro.experiments.fig3.derive_fig3`); ``None`` for
            a loaded artifact.
    """

    iid: bool
    histories: Dict[str, TrainingHistory]
    environment: Optional[Environment] = field(
        default=None, compare=False, repr=False
    )

    def best_accuracies(self) -> Dict[str, float]:
        """Highest test accuracy per strategy."""
        return {
            name: history.best_accuracy
            for name, history in self.histories.items()
        }

    def improvements_over_baselines(
        self, reference: str = "helcfl"
    ) -> Dict[str, float]:
        """Accuracy-point gain of ``reference`` over each baseline.

        Mirrors the paper's "enhance X% accuracy" statements (absolute
        percentage points, e.g. 0.0149 for the paper's 1.49%).
        """
        if reference not in self.histories:
            raise ConfigurationError(
                f"reference {reference!r} not among {list(self.histories)}"
            )
        ref_best = self.histories[reference].best_accuracy
        return {
            name: ref_best - history.best_accuracy
            for name, history in self.histories.items()
            if name != reference
        }

    def curves(self) -> Dict[str, list]:
        """Per-strategy ``(round, time, accuracy)`` series for plotting."""
        return {
            name: history.accuracy_series()
            for name, history in self.histories.items()
        }


def run_fig2(
    settings: Optional[ExperimentSettings] = None,
    iid: bool = True,
    strategies: Sequence[str] = PAPER_STRATEGIES,
    backend=None,
    workers: Optional[int] = None,
    observer=None,
    faults=None,
    config_overrides: Optional[Dict] = None,
) -> Fig2Result:
    """Reproduce one panel of Fig. 2.

    Args:
        settings: experiment settings (paper defaults when None).
        iid: which panel — IID (left) or non-IID (right).
        strategies: distinct scheme names to run.
        backend: client-execution backend (instance or name); a named
            pooled backend is created once and shared by every
            strategy's run.
        workers: pool size when ``backend`` is given by name.
        observer: optional :class:`repro.obs.RunObserver` shared by
            every strategy's run (the trace interleaves runs; each
            ends with its own ``run_stop`` event).
        faults: optional :class:`repro.faults.FaultPlan` applied to
            every FL strategy's run (each run resolves the same seeded
            chaos). The ``sl`` baseline has no round lifecycle and
            always runs undegraded.
        config_overrides: keyword overrides for every run's trainer
            config (e.g. ``{"round_deadline_s": 30.0}``).

    Returns:
        The panel's :class:`Fig2Result`.

    Raises:
        ConfigurationError: for no strategies, or a strategy named
            twice (it would train twice and keep one history).
    """
    if not strategies:
        raise ConfigurationError("need at least one strategy")
    if len(set(strategies)) != len(strategies):
        raise ConfigurationError(
            f"strategies must be distinct, got {tuple(strategies)}"
        )
    settings = settings or ExperimentSettings()
    environment = build_environment(settings, iid=iid)
    histories: Dict[str, TrainingHistory] = {}
    with open_backend(backend, workers=workers) as shared:
        for name in strategies:
            histories[name] = run_strategy(
                name,
                settings,
                iid=iid,
                environment=environment,
                backend=shared,
                observer=observer,
                faults=faults if name != "sl" else None,
                config_overrides=config_overrides,
            )
    return Fig2Result(iid=iid, histories=histories, environment=environment)
