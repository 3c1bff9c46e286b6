"""Tests for the multi-seed runner and analysis stats."""

import pytest

from repro.analysis.stats import bootstrap_ci, mean_std, moving_average, paired_gap
from repro.campaign import STATUS_PENDING, CampaignManifest
from repro.errors import ConfigurationError
from repro.experiments.multiseed import run_multiseed
from repro.experiments.settings import ExperimentSettings
from tests.campaign.conftest import campaign_histories, tiny_campaign

SIZE = {"num_users": 6, "rounds": 4, "train_size": 96, "test_size": 32}


class TestStats:
    def test_mean_std(self):
        mean, std = mean_std([1.0, 2.0, 3.0])
        assert mean == pytest.approx(2.0)
        assert std == pytest.approx(1.0)

    def test_single_value_std_zero(self):
        assert mean_std([5.0]) == (5.0, 0.0)

    def test_empty_raises(self):
        with pytest.raises(ConfigurationError):
            mean_std([])

    def test_bootstrap_ci_contains_mean(self):
        values = [0.5, 0.55, 0.6, 0.58, 0.52]
        low, high = bootstrap_ci(values, seed=0)
        mean, _ = mean_std(values)
        assert low <= mean <= high

    def test_bootstrap_ci_narrows_with_confidence(self):
        values = list(range(20))
        low90, high90 = bootstrap_ci(values, confidence=0.9, seed=0)
        low99, high99 = bootstrap_ci(values, confidence=0.99, seed=0)
        assert (high99 - low99) >= (high90 - low90)

    def test_bootstrap_validation(self):
        with pytest.raises(ConfigurationError):
            bootstrap_ci([], seed=0)
        with pytest.raises(ConfigurationError):
            bootstrap_ci([1.0], confidence=1.5)

    def test_moving_average_smooths(self):
        smoothed = moving_average([0.0, 10.0, 0.0, 10.0], window=2)
        assert smoothed == [0.0, 5.0, 5.0, 5.0]

    def test_moving_average_window_one_identity(self):
        values = [3.0, 1.0, 2.0]
        assert moving_average(values, window=1) == values

    def test_paired_gap(self):
        mean, std, wins = paired_gap([2.0, 3.0, 4.0], [1.0, 1.0, 5.0])
        assert mean == pytest.approx(2.0 / 3.0)
        assert wins == pytest.approx(2.0 / 3.0)
        assert std > 0

    def test_paired_gap_mismatch(self):
        with pytest.raises(ConfigurationError):
            paired_gap([1.0], [1.0, 2.0])


class TestMultiSeed:
    @pytest.fixture(scope="class")
    def result(self):
        settings = ExperimentSettings.quick(rounds=15)
        return run_multiseed(
            ("helcfl", "classic"), settings, iid=True, seeds=(0, 1, 2)
        )

    def test_one_history_per_seed(self, result):
        assert len(result.histories["helcfl"]) == 3
        assert len(result.histories["classic"]) == 3

    def test_metric_extraction(self, result):
        values = result.metric("helcfl", "best_accuracy")
        assert len(values) == 3
        assert all(0.0 <= v <= 1.0 for v in values)

    def test_summary_shape(self, result):
        summary = result.summary("total_energy")
        assert set(summary) == {"helcfl", "classic"}
        for mean, std in summary.values():
            assert mean > 0 and std >= 0

    def test_gap_is_paired(self, result):
        mean, std, wins = result.gap("helcfl", "classic", "total_time")
        assert wins is not None and 0.0 <= wins <= 1.0
        del mean, std

    def test_seeds_produce_different_runs(self, result):
        energies = result.metric("helcfl", "total_energy")
        assert len(set(energies)) == 3

    def test_time_to_accuracy_per_seed(self, result):
        times = result.time_to_accuracy("helcfl", 0.05)
        assert len(times) == 3

    def test_unknown_strategy_raises(self, result):
        with pytest.raises(ConfigurationError):
            result.metric("nope", "best_accuracy")
        with pytest.raises(ConfigurationError):
            result.metric("helcfl", "nope")

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            run_multiseed((), seeds=(0,))
        with pytest.raises(ConfigurationError):
            run_multiseed(("helcfl",), seeds=())

    def test_repeated_strategy_rejected(self):
        # Both "helcfl" entries appended to one list: 4 histories for
        # 2 seeds, so histories[s][i] no longer ran seeds[i].
        with pytest.raises(ConfigurationError, match="distinct"):
            run_multiseed(
                ("helcfl", "helcfl"),
                ExperimentSettings.quick(num_users=6, rounds=1),
                seeds=(0, 1),
            )


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
        result = run_multiseed(
            self.STRATEGIES, ExperimentSettings.quick(**SIZE), seeds=self.SEEDS
        )
        return {
            f"s{seed}-{strategy}-c0-f0": result.histories[strategy][i].to_json()
            for i, seed in enumerate(self.SEEDS)
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
