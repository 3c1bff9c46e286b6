"""HELCFL reproduction: high-efficiency, low-cost federated learning
in heterogeneous mobile-edge computing (Cui et al., DATE 2022).

The package implements the paper's full system from scratch on numpy:

* :mod:`repro.core` — the contribution: utility-driven greedy-decay
  user selection (Algorithm 2) and DVFS-enabled frequency
  determination (Algorithm 3), assembled by Algorithm 1
  (``repro.experiments.build_trainer("helcfl", ...)``).
* :mod:`repro.nn` — a neural-network library (the training substrate).
* :mod:`repro.data` — the synthetic CIFAR-10-like task and the paper's
  IID / non-IID partitioners.
* :mod:`repro.devices`, :mod:`repro.network` — the MEC cost model
  (Eqs. 4–11) and the TDMA timeline simulator.
* :mod:`repro.fl` — the synchronous FedAvg engine.
* :mod:`repro.baselines` — Classic FL, FedCS, FEDL, and SL.
* :mod:`repro.experiments` — runners regenerating Fig. 2, Table I,
  and Fig. 3.

Quickstart::

    from repro.experiments import ExperimentSettings, run_strategy

    settings = ExperimentSettings.quick()
    history = run_strategy("helcfl", settings, iid=True)
    print(history.best_accuracy, history.total_time, history.total_energy)
"""

from repro.core import (
    GreedyDecaySelection,
    HelcflDvfsPolicy,
    analyze_slack,
    determine_frequencies,
)
from repro.errors import ReproError
from repro.version import __version__

__all__ = [
    "__version__",
    "ReproError",
    "GreedyDecaySelection",
    "HelcflDvfsPolicy",
    "determine_frequencies",
    "analyze_slack",
]
