"""Multi-seed experiment runs with statistical summaries.

Single runs of Fig. 2-style comparisons can land inside evaluation
noise. This runner repeats a set of strategies over several master
seeds (each seed re-derives the task, partition, fleet, model init,
and selection streams) and reports per-metric means, standard
deviations, and paired per-seed gaps.

Passing ``campaign_dir`` routes the same matrix through the
crash-recoverable campaign orchestrator (:mod:`repro.campaign`):
runs execute in parallel worker processes with checkpointing on, a
killed invocation resumes with ``resume=True``, and the assembled
:class:`MultiSeedResult` is bitwise identical to the in-process path.
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


def _fill_from_campaign(
    result: MultiSeedResult,
    settings: ExperimentSettings,
    campaign_dir: str,
    resume: bool,
    pool_workers: Optional[int],
) -> None:
    """Execute ``result``'s seed x strategy matrix through the campaign pool."""
    from repro.campaign.pool import run_campaign_histories
    from repro.campaign.spec import CampaignSpec, settings_to_overrides

    spec = CampaignSpec(
        name="multiseed",
        profile="default",
        iid=result.iid,
        seeds=result.seeds,
        strategies=tuple(result.histories),
        overrides=({"settings": settings_to_overrides(settings)},),
    )
    # Runs expand seeds-outermost, so each list fills in seed order.
    for run, history in run_campaign_histories(
        spec, campaign_dir, resume, pool_workers
    ):
        result.histories[run.strategy].append(history)


def run_multiseed(
    strategies: Sequence[str],
    settings: Optional[ExperimentSettings] = None,
    iid: bool = True,
    seeds: Sequence[int] = (0, 1, 2),
    campaign_dir: Optional[str] = None,
    resume: bool = False,
    pool_workers: Optional[int] = None,
) -> MultiSeedResult:
    """Run each strategy once per seed on seed-matched environments.

    For every seed, all strategies share the identical environment
    (data, partition, fleet, model init), so per-seed gaps are paired
    comparisons.

    Args:
        strategies: strategy names (see
            :data:`repro.experiments.runner.STRATEGY_NAMES`).
        settings: base settings; each run replaces only ``seed``.
        iid: partition regime.
        seeds: master seeds.
        campaign_dir: when set, execute through the crash-recoverable
            campaign orchestrator in this directory — parallel worker
            processes, checkpointing, and ``resume`` support — with
            bitwise-identical histories.
        resume: (campaign mode) continue an interrupted campaign
            instead of starting over.
        pool_workers: (campaign mode) worker-process count override.

    Returns:
        The assembled :class:`MultiSeedResult`.
    """
    if not strategies:
        raise ConfigurationError("need at least one strategy")
    if not seeds:
        raise ConfigurationError("need at least one seed")
    settings = settings or ExperimentSettings()
    result = MultiSeedResult(
        iid=iid,
        seeds=tuple(int(s) for s in seeds),
        histories={strategy: [] for strategy in strategies},
    )
    if campaign_dir is not None:
        _fill_from_campaign(
            result, settings, campaign_dir, resume, pool_workers
        )
        return result
    for seed in result.seeds:
        seeded = replace(settings, seed=seed)
        environment = build_environment(seeded, iid=iid)
        for strategy in strategies:
            history = run_strategy(
                strategy, seeded, iid=iid, environment=environment
            )
            result.histories[strategy].append(history)
    return result
