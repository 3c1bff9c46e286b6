"""Generic parameter sweeps over :class:`ExperimentSettings`.

The ablation benches each hand-roll a loop over one knob; this utility
generalizes that: declare a grid over any settings fields, run a
strategy at every grid point, and collect a tidy results table. Used
for exploratory studies ("how does the eta/fraction plane look?")
without writing a new runner each time.

A sweep runs in-process. A crash-safe sweep is a
:class:`~repro.campaign.CampaignSpec` with one ``overrides`` entry per
grid point, run by ``python -m repro campaign run``.
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


def run_sweep(
    grid: Mapping[str, Iterable],
    strategy: str = "helcfl",
    base: Optional[ExperimentSettings] = None,
    iid: bool = True,
) -> SweepResult:
    """Run ``strategy`` at every point of a settings grid.

    The environment (data, partition, fleet) is built once when every
    swept field is known not to reach it, and per point otherwise.

    Args:
        grid: mapping from :class:`ExperimentSettings` field names to
            the values to sweep; the cartesian product is evaluated.
        strategy: the scheme to run at every point.
        base: base settings (quick profile recommended).
        iid: partition regime.

    Returns:
        The assembled :class:`SweepResult` in grid order.

    Raises:
        ConfigurationError: for an empty grid or unknown field names.
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
    names = list(grid)
    shared_environment = None
    if set(names) <= _ENVIRONMENT_FREE_FIELDS:
        shared_environment = build_environment(base, iid=iid)
    points = []
    for combination in itertools.product(*(list(grid[n]) for n in names)):
        overrides = dict(zip(names, combination))
        settings = replace(base, **overrides)
        environment = shared_environment or build_environment(
            settings, iid=iid
        )
        history = run_strategy(
            strategy, settings, iid=iid, environment=environment
        )
        points.append(
            SweepPoint(
                overrides=tuple(sorted(overrides.items())), history=history
            )
        )
    return SweepResult(strategy=strategy, iid=iid, points=points)
