"""The paper's primary contribution.

* :mod:`repro.core.utility` — the utility function of Eq. (20);
* :mod:`repro.core.selection` — Algorithm 2, utility-driven
  greedy-decay user selection;
* :mod:`repro.core.frequency` — Algorithm 3, DVFS-enabled operating
  frequency determination;
* :mod:`repro.core.slack` — slack-time analysis (Section VI-A, Fig. 1).

Algorithm 1 is :func:`repro.experiments.runner.build_trainer`'s
``"helcfl"`` trainer: greedy-decay selection and Algorithm 3 around the
synchronous FedAvg round loop of :class:`~repro.fl.trainer.FederatedTrainer`.
"""

from repro.core.frequency import (
    HelcflDvfsPolicy,
    determine_frequencies,
    determine_frequencies_population,
)
from repro.core.selection import GreedyDecaySelection, top_utility_positions
from repro.core.slack import SlackReport, analyze_slack
from repro.core.utility import utility_scores

__all__ = [
    "utility_scores",
    "GreedyDecaySelection",
    "top_utility_positions",
    "determine_frequencies",
    "determine_frequencies_population",
    "HelcflDvfsPolicy",
    "SlackReport",
    "analyze_slack",
]
