"""A parameter sweep is a campaign with one ``overrides`` entry per point.

Each grid point's run must equal :func:`run_strategy` at that point's
settings, whether the swept field only reaches the trainer (fraction,
learning rate) or also rebuilds the data, partition and fleet
(num_users, dirichlet_alpha, seed).
"""

from dataclasses import replace

import pytest

from repro.experiments.runner import run_strategy
from repro.experiments.settings import ExperimentSettings
from repro.fl.history import TrainingHistory
from tests.campaign.conftest import (
    TINY_SETTINGS,
    campaign_histories,
    tiny_campaign,
)

SEED = 3
IID_GRID = {
    "fraction": (0.2, 0.8),
    "learning_rate": (0.2, 0.3),
    "num_users": (6, 10),
}
NONIID_GRID = {"dirichlet_alpha": (0.05, 50.0)}
NONIID_BASE = dict(TINY_SETTINGS, noniid_kind="dirichlet")


def grid_points(grid):
    return [(name, value) for name in grid for value in grid[name]]


POINTS = [(name, value, True) for name, value in grid_points(IID_GRID)] + [
    (name, value, False) for name, value in grid_points(NONIID_GRID)
]


def point_settings(name, value, iid):
    return dict(TINY_SETTINGS if iid else NONIID_BASE, **{name: value})


def sweep(root, grid, iid, seeds=(SEED,)):
    """Run ``helcfl`` at every grid point; ``{(seed, name, value): JSON}``."""
    points = grid_points(grid)
    spec = tiny_campaign(
        seeds=seeds,
        strategies=("helcfl",),
        iid=iid,
        overrides=tuple(
            {"settings": point_settings(name, value, iid)}
            for name, value in points
        ),
    )
    histories = list(campaign_histories(root, spec).values())
    keys = [(seed, name, value) for seed in seeds for name, value in points]
    return dict(zip(keys, histories))


@pytest.fixture(scope="module")
def swept(tmp_path_factory):
    """Every grid point's history JSON, keyed ``(seed, name, value)``."""
    histories = sweep(str(tmp_path_factory.mktemp("iid")), IID_GRID, True)
    histories.update(
        sweep(str(tmp_path_factory.mktemp("noniid")), NONIID_GRID, False)
    )
    return histories


def in_process(seed, settings, iid):
    return run_strategy(
        "helcfl",
        replace(ExperimentSettings.quick(), seed=seed, **settings),
        iid=iid,
    )


@pytest.mark.parametrize(
    "name,value,iid", POINTS, ids=[f"{n}={v}" for n, v, _ in POINTS]
)
def test_point_matches_run_strategy(swept, name, value, iid):
    expected = in_process(SEED, point_settings(name, value, iid), iid)
    assert swept[(SEED, name, value)] == expected.to_json()


@pytest.mark.parametrize("name", [*IID_GRID, *NONIID_GRID])
def test_swept_field_changes_the_run(swept, name):
    # A point that ignored its override (a stale environment, say)
    # would repeat the other point's history.
    grid = IID_GRID if name in IID_GRID else NONIID_GRID
    low, high = (swept[(SEED, name, value)] for value in grid[name])
    assert low != high


def test_fraction_changes_selection_size(swept):
    sizes = {
        value: len(
            TrainingHistory.from_json(swept[(SEED, "fraction", value)])
            .records[0]
            .selected_ids
        )
        for value in IID_GRID["fraction"]
    }
    assert sizes[0.8] > sizes[0.2]


def test_seed_axis_matches_per_seed_runs(tmp_path):
    grid = {"learning_rate": (0.3,)}
    histories = sweep(str(tmp_path), grid, True, seeds=(3, 4))
    for (seed, name, value), routed in histories.items():
        expected = in_process(seed, point_settings(name, value, True), True)
        assert routed == expected.to_json(), seed
    assert len(set(histories.values())) == 2


def test_run_ids_follow_grid_order(tmp_path):
    # The product in the order the fields are named, as one override
    # list: c0..c3 are (0.2, 1), (0.2, 2), (0.3, 1), (0.3, 2).
    overrides = tuple(
        {"settings": dict(TINY_SETTINGS, learning_rate=lr, local_steps=steps)}
        for lr in (0.2, 0.3)
        for steps in (1, 2)
    )
    spec = tiny_campaign(
        seeds=(SEED,), strategies=("classic",), overrides=overrides
    )
    routed = campaign_histories(str(tmp_path), spec)
    assert list(routed) == [f"s{SEED}-classic-c{i}-f0" for i in range(4)]
    for override, history in zip(overrides, routed.values()):
        settings = replace(
            ExperimentSettings.quick(), seed=SEED, **override["settings"]
        )
        expected = run_strategy("classic", settings, iid=True)
        assert history == expected.to_json()
    assert len(set(routed.values())) == 4
