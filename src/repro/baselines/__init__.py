"""Baseline schemes the paper compares against (Section VII-A).

* :class:`~repro.baselines.classic.RandomSelection` — **Classic FL**
  [9]: uniform-random selection of ``Q*C`` users per round.
* :class:`~repro.baselines.fedcs.FedCsSelection` — **FedCS** [10]:
  greedy deadline-constrained selection of short-delay users.
* :class:`~repro.baselines.fedl.FedlClosedFormPolicy` — **FEDL** [12]:
  random selection with a closed-form frequency balancing energy
  against delay.
* :class:`~repro.baselines.sl.SeparatedLearningRunner` — **SL** [4]:
  every user trains alone; no aggregation.
"""

from repro.baselines.classic import RandomSelection
from repro.baselines.fedcs import FedCsSelection, fedcs_deadline_for_count
from repro.baselines.fedl import FedlClosedFormPolicy
from repro.baselines.registry import build_strategy
from repro.baselines.sl import SeparatedLearningRunner

__all__ = [
    "RandomSelection",
    "FedCsSelection",
    "fedcs_deadline_for_count",
    "FedlClosedFormPolicy",
    "SeparatedLearningRunner",
    "build_strategy",
]
