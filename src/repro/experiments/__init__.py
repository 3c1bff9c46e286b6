"""Experiment harness reproducing the paper's evaluation (Section VII).

* :mod:`repro.experiments.settings` — the paper's simulation settings
  and the scaled profile this offline reproduction runs at.
* :mod:`repro.experiments.runner` — builds and runs any scheme
  (HELCFL + the four baselines) on IID or non-IID partitions.
* :mod:`repro.experiments.fig2` — accuracy curves (Fig. 2): the one
  sweep that trains for an artifact.
* :mod:`repro.experiments.table1` — training delay to desired accuracy
  (Table I), derived from a Fig. 2 result.
* :mod:`repro.experiments.fig3` — DVFS energy reduction (Fig. 3),
  derived from a Fig. 2 result's HELCFL run and its max-frequency
  replay.
* :mod:`repro.experiments.reporting` — text tables mirroring the
  paper's presentation.
"""

from repro.experiments.fig1 import Fig1Result, run_fig1
from repro.experiments.fig2 import PAPER_STRATEGIES, Fig2Result, run_fig2
from repro.experiments.fig3 import Fig3Result, derive_fig3, max_frequency_history
from repro.experiments.reporting import (
    format_fig2_table,
    format_fig3_table,
    format_table1,
)
from repro.experiments.runner import STRATEGY_NAMES, build_environment, run_strategy
from repro.experiments.settings import ExperimentSettings
from repro.experiments.table1 import Table1Result, derive_table1

__all__ = [
    "ExperimentSettings",
    "STRATEGY_NAMES",
    "build_environment",
    "run_strategy",
    "Fig1Result",
    "run_fig1",
    "Fig2Result",
    "run_fig2",
    "PAPER_STRATEGIES",
    "Table1Result",
    "derive_table1",
    "Fig3Result",
    "derive_fig3",
    "max_frequency_history",
    "format_fig2_table",
    "format_table1",
    "format_fig3_table",
]
