"""Extensions beyond the paper's scope.

Features the paper motivates but does not implement, built on the same
substrates:

* :class:`~repro.extensions.battery_aware.BatteryAwareSelection` —
  battery-level gating composed around any selection strategy
  (Section I motivates energy optimization with battery-powered
  devices shutting down mid-training);
* :class:`~repro.extensions.async_fl.SemiAsyncTrainer` — a
  semi-asynchronous aggregation loop with staleness-weighted FedAvg,
  the standard alternative to the paper's synchronous rule.
"""

from repro.extensions.async_fl import SemiAsyncConfig, SemiAsyncTrainer
from repro.extensions.battery_aware import BatteryAwareSelection
from repro.extensions.oort import OortSelection
from repro.extensions.personalization import (
    PersonalizationReport,
    evaluate_personalization,
)

__all__ = [
    "BatteryAwareSelection",
    "SemiAsyncTrainer",
    "SemiAsyncConfig",
    "OortSelection",
    "PersonalizationReport",
    "evaluate_personalization",
]
