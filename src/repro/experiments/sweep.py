"""Generic parameter sweeps over :class:`ExperimentSettings`.

The ablation benches each hand-roll a loop over one knob; this utility
generalizes that: declare a grid over any settings fields, run a
strategy at every grid point, and collect a tidy results table. Used
for exploratory studies ("how does the eta/fraction plane look?")
without writing a new runner each time.

Passing ``campaign_dir`` routes the grid through the crash-recoverable
campaign orchestrator (:mod:`repro.campaign`): every grid point
becomes one checkpointed campaign run, a killed sweep resumes with
``resume=True``, and the assembled :class:`SweepResult` is bitwise
identical to the in-process path.
"""

from __future__ import annotations

import dataclasses
import itertools
from dataclasses import dataclass, replace
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from repro.errors import ConfigurationError
from repro.experiments.runner import build_environment, run_strategy
from repro.experiments.settings import ExperimentSettings
from repro.fl.history import TrainingHistory

__all__ = ["SweepPoint", "SweepResult", "run_sweep"]


@dataclass(frozen=True)
class SweepPoint:
    """One grid point's outcome.

    Attributes:
        overrides: the settings fields that define this point.
        history: the training run at this point.
    """

    overrides: Tuple[Tuple[str, object], ...]
    history: TrainingHistory

    def override_dict(self) -> Dict[str, object]:
        """The overrides as a plain dict."""
        return dict(self.overrides)


@dataclass
class SweepResult:
    """All grid points of one sweep, with tabulation helpers."""

    strategy: str
    iid: bool
    points: List[SweepPoint]

    def table(
        self, metrics: Sequence[str] = ("best_accuracy", "total_time", "total_energy")
    ) -> List[Dict[str, object]]:
        """Rows of ``{knob: value, ..., metric: value, ...}``."""
        rows = []
        for point in self.points:
            row: Dict[str, object] = dict(point.overrides)
            for metric in metrics:
                row[metric] = getattr(point.history, metric)
            rows.append(row)
        return rows

    def best_point(self, metric: str = "best_accuracy") -> SweepPoint:
        """The grid point maximizing ``metric``."""
        if not self.points:
            raise ConfigurationError("sweep produced no points")
        return max(self.points, key=lambda p: getattr(p.history, metric))


# The settings fields known *not* to reach ``build_environment`` (data,
# partition, fleet, model inputs). Sweeping any other field rebuilds
# the environment per point, so a field added to ExperimentSettings
# later is handled correctly before anyone remembers this list.
_ENVIRONMENT_FREE_FIELDS = frozenset(
    {
        "fraction",
        "decay",
        "rounds",
        "bandwidth_hz",
        "payload_bits",
        "learning_rate",
        "local_steps",
        "eval_every",
        "fedcs_target_count",
        "fedcs_candidate_fraction",
        "fedl_kappa",
    }
)


def _campaign_histories(
    grid_points: List[Dict[str, object]],
    strategy: str,
    base: ExperimentSettings,
    iid: bool,
    campaign_dir: str,
    resume: bool,
    pool_workers: Optional[int],
) -> List[TrainingHistory]:
    """Execute the grid through the campaign pool, one run per point."""
    from repro.campaign.pool import run_campaign_histories
    from repro.campaign.spec import CampaignSpec, settings_to_overrides

    base_diff = settings_to_overrides(base)
    variants = []
    for overrides in grid_points:
        merged = dict(base_diff)
        for name, value in overrides.items():
            merged[name] = list(value) if isinstance(value, tuple) else value
        variants.append({"settings": merged})
    spec = CampaignSpec(
        name="sweep",
        profile="default",
        iid=iid,
        seeds=(int(base.seed),),
        strategies=(strategy,),
        overrides=tuple(variants),
    )
    # One seed, one strategy: the runs expand in grid order.
    return [
        history
        for _, history in run_campaign_histories(
            spec, campaign_dir, resume, pool_workers
        )
    ]


def run_sweep(
    grid: Mapping[str, Iterable],
    strategy: str = "helcfl",
    base: Optional[ExperimentSettings] = None,
    iid: bool = True,
    reuse_environment: bool = True,
    campaign_dir: Optional[str] = None,
    resume: bool = False,
    pool_workers: Optional[int] = None,
) -> SweepResult:
    """Run ``strategy`` at every point of a settings grid.

    Args:
        grid: mapping from :class:`ExperimentSettings` field names to
            the values to sweep; the cartesian product is evaluated.
        strategy: the scheme to run at every point.
        base: base settings (quick profile recommended).
        iid: partition regime.
        reuse_environment: when True and every swept field is known
            not to affect the environment (data, partition, fleet),
            build it once. Any other field forces a rebuild per point.
        campaign_dir: when set, execute through the crash-recoverable
            campaign orchestrator in this directory — one checkpointed
            worker-process run per grid point, with ``resume`` support
            and bitwise-identical histories.
        resume: (campaign mode) continue an interrupted sweep instead
            of starting over.
        pool_workers: (campaign mode) worker-process count override.

    Returns:
        The assembled :class:`SweepResult` in grid order.

    Raises:
        ConfigurationError: for an empty grid, unknown field names, or
            a campaign-routed sweep over ``seed`` (use
            :func:`repro.experiments.multiseed.run_multiseed`).
    """
    if not grid:
        raise ConfigurationError("grid must name at least one field")
    base = base or ExperimentSettings.quick()
    valid_fields = {f.name for f in dataclasses.fields(ExperimentSettings)}
    for name in grid:
        if name not in valid_fields:
            raise ConfigurationError(
                f"unknown settings field {name!r}; valid fields: "
                f"{sorted(valid_fields)}"
            )
    if campaign_dir is not None and "seed" in grid:
        raise ConfigurationError(
            "a campaign-routed sweep cannot sweep 'seed' (seeds are "
            "a campaign matrix axis); use run_multiseed instead"
        )
    names = list(grid)
    grid_points = [
        dict(zip(names, combination))
        for combination in itertools.product(*(list(grid[n]) for n in names))
    ]
    if campaign_dir is not None:
        histories = _campaign_histories(
            grid_points,
            strategy,
            base,
            iid,
            campaign_dir,
            resume,
            pool_workers,
        )
    else:
        shared_environment = None
        if reuse_environment and set(grid) <= _ENVIRONMENT_FREE_FIELDS:
            shared_environment = build_environment(base, iid=iid)
        histories = []
        for overrides in grid_points:
            settings = replace(base, **overrides)
            environment = shared_environment or build_environment(
                settings, iid=iid
            )
            histories.append(
                run_strategy(
                    strategy, settings, iid=iid, environment=environment
                )
            )
    points = [
        SweepPoint(overrides=tuple(sorted(overrides.items())), history=history)
        for overrides, history in zip(grid_points, histories)
    ]
    return SweepResult(strategy=strategy, iid=iid, points=points)
