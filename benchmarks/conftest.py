"""Shared fixtures for the benchmark harness.

The experiment benches (Fig. 2 / Table I / Fig. 3) share one full-scale
training sweep per partition regime via a session-scoped cache, so the
expensive runs happen exactly once per pytest session regardless of
which benches are selected.
"""

from __future__ import annotations

import pytest

from repro.experiments.fig2 import PAPER_STRATEGIES, run_fig2
from repro.experiments.settings import ExperimentSettings


@pytest.fixture(scope="session")
def full_settings() -> ExperimentSettings:
    """The paper-default (scaled-profile) settings used by every bench."""
    return ExperimentSettings(seed=7)


@pytest.fixture(scope="session")
def sweep_cache():
    """Session cache: regime -> Fig2Result over PAPER_STRATEGIES."""
    return {}


def run_sweep(settings: ExperimentSettings, iid: bool, cache: dict):
    """Run (or fetch) the full strategy sweep for one regime."""
    key = ("iid" if iid else "noniid", settings.seed)
    if key not in cache:
        cache[key] = run_fig2(settings, iid=iid, strategies=PAPER_STRATEGIES)
    return cache[key]
