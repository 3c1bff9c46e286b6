"""Shared fixtures for the campaign-orchestration test suite."""

from __future__ import annotations

import os

import pytest

from repro.campaign import (
    STATUS_DONE,
    CampaignManifest,
    CampaignPool,
    CampaignSpec,
)
from repro.campaign.runner import HISTORY_FILE, execute_run
from repro.campaign.spec import RunSpec
from repro.fl.history import TrainingHistory

# Small enough that a full run takes well under a second, large enough
# that selection/DVFS/eval all exercise their real code paths.
TINY_SETTINGS = {
    "num_users": 6,
    "rounds": 5,
    "train_size": 96,
    "test_size": 32,
    "eval_every": 2,
}


def tiny_run(
    seed: int = 0,
    strategy: str = "helcfl",
    checkpoint_every: int = 1,
    **settings_overrides,
) -> RunSpec:
    """One fully resolved tiny run."""
    overrides = dict(TINY_SETTINGS)
    overrides.update(settings_overrides)
    return RunSpec(
        run_id=f"s{seed}-{strategy}-c0-f0",
        seed=seed,
        strategy=strategy,
        iid=True,
        profile="quick",
        settings_overrides=overrides,
        checkpoint_every=checkpoint_every,
    )


def tiny_campaign(
    seeds=(0, 1),
    strategies=("helcfl", "classic"),
    **spec_kwargs,
) -> CampaignSpec:
    """A tiny seeds x strategies campaign spec."""
    defaults = dict(
        name="tiny",
        profile="quick",
        seeds=tuple(seeds),
        strategies=tuple(strategies),
        overrides=({"settings": dict(TINY_SETTINGS)},),
        checkpoint_every=1,
        pool_workers=2,
        max_retries=2,
    )
    defaults.update(spec_kwargs)
    return CampaignSpec(**defaults)


def campaign_histories(root: str, spec: CampaignSpec, resume: bool = False):
    """Run ``spec`` in ``root`` on one worker; ``{run_id: history JSON}``.

    The mapping is in expansion order, and every run must end ``done``.
    """
    manifest = CampaignManifest.create(root, spec)
    statuses = CampaignPool(manifest, pool_workers=1).run(resume=resume)
    assert set(statuses.values()) == {STATUS_DONE}
    return {
        run.run_id: TrainingHistory.load(
            os.path.join(manifest.run_dir(run.run_id), HISTORY_FILE)
        ).to_json()
        for run in manifest.runs
    }


@pytest.fixture(scope="session")
def reference_run_dir(tmp_path_factory):
    """An uninterrupted tiny helcfl run's artifact directory.

    Session-scoped: every crash-recovery parity test compares its
    resumed artifacts byte-for-byte against this single reference.
    """
    run_dir = tmp_path_factory.mktemp("reference") / "run"
    execute_run(tiny_run(), str(run_dir))
    return run_dir
