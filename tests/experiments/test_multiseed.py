"""Tests for multi-seed studies: one Fig. 2 sweep per seed."""

from dataclasses import replace

import pytest

from repro.analysis.stats import mean_std, paired_gap
from repro.campaign import STATUS_PENDING, CampaignManifest
from repro.experiments.fig2 import run_fig2
from repro.experiments.settings import ExperimentSettings
from tests.campaign.conftest import campaign_histories, tiny_campaign

SIZE = {"num_users": 6, "rounds": 4, "train_size": 96, "test_size": 32}
SEEDS = (0, 1, 2)
STRATEGIES = ("helcfl", "classic")


@pytest.fixture(scope="module")
def sweep():
    # The multi-seed idiom: a tuple of Fig2Results, one run_fig2 per seed.
    settings = ExperimentSettings.quick(**SIZE)
    return tuple(
        run_fig2(replace(settings, seed=seed), strategies=STRATEGIES)
        for seed in SEEDS
    )


def per_seed(sweep, strategy, metric):
    return [getattr(result.histories[strategy], metric) for result in sweep]


def test_seeds_produce_different_runs(sweep):
    # Each seed re-derives data, partition, fleet and model init.
    assert len(set(per_seed(sweep, "helcfl", "total_energy"))) == len(SEEDS)


def test_one_history_per_strategy_per_seed(sweep):
    assert len(sweep) == len(SEEDS)
    for result in sweep:
        assert tuple(result.histories) == STRATEGIES
        for history in result.histories.values():
            assert len(history.records) == SIZE["rounds"]


def test_summary_over_seeds(sweep):
    for strategy in STRATEGIES:
        energies = per_seed(sweep, strategy, "total_energy")
        mean, std = mean_std(energies)
        assert mean == pytest.approx(sum(energies) / len(SEEDS))
        assert mean > 0 and std > 0


def test_gap_is_paired_by_seed(sweep):
    helcfl = per_seed(sweep, "helcfl", "total_time")
    classic = per_seed(sweep, "classic", "total_time")
    mean, _, wins = paired_gap(helcfl, classic)
    gaps = [a - b for a, b in zip(helcfl, classic)]
    assert mean == pytest.approx(sum(gaps) / len(SEEDS))
    assert wins == sum(g > 0 for g in gaps) / len(SEEDS)


def test_time_to_accuracy_per_seed(sweep):
    for result in sweep:
        history = result.histories["helcfl"]
        # Reachable targets give a time within the run; an unreachable
        # one gives None on every seed.
        time = history.time_to_accuracy(history.best_accuracy)
        assert 0 < time <= history.total_time
        assert history.time_to_accuracy(1.01) is None


class TestCampaignRouting:
    """A multi-seed study run as a campaign spec (seeds x strategies)."""

    STRATEGIES = ("helcfl", "classic")
    SEEDS = (0, 1)

    def spec(self):
        return tiny_campaign(
            seeds=self.SEEDS,
            strategies=self.STRATEGIES,
            overrides=({"settings": dict(SIZE)},),
        )

    def in_process(self):
        settings = ExperimentSettings.quick(**SIZE)
        results = [
            run_fig2(replace(settings, seed=seed), strategies=self.STRATEGIES)
            for seed in self.SEEDS
        ]
        return {
            f"s{seed}-{strategy}-c0-f0": result.histories[strategy].to_json()
            for seed, result in zip(self.SEEDS, results)
            for strategy in self.STRATEGIES
        }

    def test_campaign_matches_in_process_bitwise(self, tmp_path):
        routed = campaign_histories(str(tmp_path / "camp"), self.spec())
        assert routed == self.in_process()
        assert list(routed) == list(self.in_process())

    def test_campaign_resume_is_idempotent(self, tmp_path):
        root = str(tmp_path / "camp")
        first = campaign_histories(root, self.spec())
        # Requeue one finished run: resume re-executes it from its
        # last checkpoint and must rewrite the same history bytes.
        rerun = "s1-helcfl-c0-f0"
        manifest = CampaignManifest.open(root)
        manifest.write_status(rerun, STATUS_PENDING, 1)
        again = campaign_histories(root, self.spec(), resume=True)
        assert manifest.read_status(rerun).attempts == 2
        assert again == first == self.in_process()
