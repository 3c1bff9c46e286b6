"""The campaign route and the in-process route run the same experiment.

A crash-safe sweep or multi-seed study is a :class:`CampaignSpec`
(seeds x strategies x override variants); each of its runs must write
the ``history.json`` that :func:`run_strategy` returns for the same
settings and trainer overrides.
"""

from dataclasses import replace

from repro.experiments.runner import run_strategy
from repro.experiments.settings import ExperimentSettings
from tests.campaign.conftest import (
    TINY_SETTINGS,
    campaign_histories,
    tiny_campaign,
)

SEEDS = (0, 1)
STRATEGIES = ("helcfl", "classic")
VARIANTS = (
    {"settings": dict(TINY_SETTINGS, rounds=4, learning_rate=0.3)},
    {
        "settings": dict(TINY_SETTINGS, rounds=4, learning_rate=0.3),
        "trainer": {"local_steps": 2},
    },
)


def in_process(seed, strategy, variant):
    settings = replace(
        ExperimentSettings.quick(), seed=seed, **variant["settings"]
    )
    return run_strategy(
        strategy,
        settings,
        iid=True,
        config_overrides=variant.get("trainer"),
    )


def test_every_campaign_run_matches_run_strategy(tmp_path):
    spec = tiny_campaign(
        seeds=SEEDS, strategies=STRATEGIES, overrides=VARIANTS
    )
    histories = campaign_histories(str(tmp_path), spec)
    matrix = [
        (seed, strategy, index)
        for seed in SEEDS
        for strategy in STRATEGIES
        for index in range(len(VARIANTS))
    ]
    assert list(histories) == [
        f"s{seed}-{strategy}-c{index}-f0" for seed, strategy, index in matrix
    ]
    for run_id, (seed, strategy, index) in zip(histories, matrix):
        expected = in_process(seed, strategy, VARIANTS[index])
        assert histories[run_id] == expected.to_json(), run_id
    # The trainer override changed the run, so both routes applied it.
    assert histories["s0-helcfl-c0-f0"] != histories["s0-helcfl-c1-f0"]
