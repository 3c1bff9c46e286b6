"""Multi-seed experiment runs with statistical summaries.

Single runs of Fig. 2-style comparisons can land inside evaluation
noise. This runner repeats a set of strategies over several master
seeds (each seed re-derives the task, partition, fleet, model init,
and selection streams) and reports per-metric means, standard
deviations, and paired per-seed gaps.

The runs execute in-process. The same seed x strategy matrix run
crash-safe in worker processes is a :class:`~repro.campaign.CampaignSpec`
(``seeds`` and ``strategies`` are its matrix axes), run by
``python -m repro campaign run``.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Tuple

from repro.analysis.stats import mean_std, paired_gap
from repro.errors import ConfigurationError
from repro.experiments.runner import build_environment, run_strategy
from repro.experiments.settings import ExperimentSettings
from repro.fl.history import TrainingHistory

__all__ = ["MultiSeedResult", "run_multiseed"]


@dataclass
class MultiSeedResult:
    """Histories and summaries of a multi-seed sweep.

    Attributes:
        iid: partition regime.
        seeds: master seeds, in run order.
        histories: ``histories[strategy][i]`` is the run for
            ``seeds[i]``.
    """

    iid: bool
    seeds: Tuple[int, ...]
    histories: Dict[str, List[TrainingHistory]] = field(default_factory=dict)

    def metric(self, strategy: str, name: str) -> List[float]:
        """Per-seed values of a metric for one strategy.

        Supported metrics: ``best_accuracy``, ``final_accuracy``,
        ``total_time``, ``total_energy``.
        """
        if strategy not in self.histories:
            raise ConfigurationError(
                f"unknown strategy {strategy!r}; have {list(self.histories)}"
            )
        if name not in (
            "best_accuracy",
            "final_accuracy",
            "total_time",
            "total_energy",
        ):
            raise ConfigurationError(f"unknown metric {name!r}")
        return [getattr(h, name) for h in self.histories[strategy]]

    def summary(self, name: str = "best_accuracy") -> Dict[str, Tuple[float, float]]:
        """``(mean, std)`` of a metric for every strategy."""
        return {
            strategy: mean_std(self.metric(strategy, name))
            for strategy in self.histories
        }

    def gap(
        self, a: str, b: str, name: str = "best_accuracy"
    ) -> Tuple[float, float, Optional[float]]:
        """Paired per-seed gap of metric ``name`` between strategies.

        Returns ``(mean gap, std, fraction of seeds where a wins)``.
        """
        return paired_gap(self.metric(a, name), self.metric(b, name))

    def time_to_accuracy(self, strategy: str, target: float) -> List[Optional[float]]:
        """Per-seed time-to-accuracy (None where unreachable)."""
        if strategy not in self.histories:
            raise ConfigurationError(f"unknown strategy {strategy!r}")
        return [h.time_to_accuracy(target) for h in self.histories[strategy]]


def run_multiseed(
    strategies: Sequence[str],
    settings: Optional[ExperimentSettings] = None,
    iid: bool = True,
    seeds: Sequence[int] = (0, 1, 2),
) -> MultiSeedResult:
    """Run each strategy once per seed on seed-matched environments.

    For every seed, all strategies share the identical environment
    (data, partition, fleet, model init), so per-seed gaps are paired
    comparisons.

    Args:
        strategies: distinct strategy names (see
            :data:`repro.experiments.runner.STRATEGY_NAMES`).
        settings: base settings; each run replaces only ``seed``.
        iid: partition regime.
        seeds: master seeds.

    Returns:
        The assembled :class:`MultiSeedResult`.

    Raises:
        ConfigurationError: for no strategies, no seeds, or a strategy
            named twice (its runs would share one per-seed list).
    """
    if not strategies:
        raise ConfigurationError("need at least one strategy")
    if len(set(strategies)) != len(strategies):
        raise ConfigurationError(
            f"strategies must be distinct, got {tuple(strategies)}"
        )
    if not seeds:
        raise ConfigurationError("need at least one seed")
    settings = settings or ExperimentSettings()
    result = MultiSeedResult(
        iid=iid,
        seeds=tuple(int(s) for s in seeds),
        histories={strategy: [] for strategy in strategies},
    )
    for seed in result.seeds:
        seeded = replace(settings, seed=seed)
        environment = build_environment(seeded, iid=iid)
        for strategy in strategies:
            history = run_strategy(
                strategy, seeded, iid=iid, environment=environment
            )
            result.histories[strategy].append(history)
    return result
