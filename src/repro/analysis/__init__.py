"""Statistical analysis utilities for experiment results."""

from repro.analysis.convergence import PlateauDetector
from repro.analysis.stats import mean_std, paired_gap

__all__ = [
    "mean_std",
    "paired_gap",
    "PlateauDetector",
]
