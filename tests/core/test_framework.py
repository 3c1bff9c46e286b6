"""Tests for the assembled HELCFL framework (Algorithm 1):
``build_trainer("helcfl" | "helcfl-nodvfs", ...)``."""

import pytest

from repro.core.frequency import HelcflDvfsPolicy
from repro.core.selection import GreedyDecaySelection
from repro.experiments.runner import build_environment, build_trainer
from repro.experiments.settings import ExperimentSettings
from repro.fl.strategy import MaxFrequencyPolicy


@pytest.fixture(scope="module")
def settings():
    return ExperimentSettings.quick(seed=1, rounds=8, fraction=0.5, decay=0.8)


@pytest.fixture(scope="module")
def environment(settings):
    return build_environment(settings, iid=True)


class TestBuilder:
    def test_wires_greedy_decay_and_dvfs(self, settings, environment):
        trainer = build_trainer("helcfl", settings, environment)
        assert isinstance(trainer.selection, GreedyDecaySelection)
        assert isinstance(trainer.frequency_policy, HelcflDvfsPolicy)
        assert trainer.selection.fraction == 0.5
        assert trainer.selection.decay == 0.8

    def test_dvfs_false_uses_max_frequency(self, settings, environment):
        trainer = build_trainer("helcfl-nodvfs", settings, environment)
        assert isinstance(trainer.frequency_policy, MaxFrequencyPolicy)

    def test_label_passed_through(self, settings, environment):
        assert build_trainer("helcfl", settings, environment).label == "HELCFL"
        assert (
            build_trainer("helcfl-nodvfs", settings, environment).label
            == "HELCFL (no DVFS)"
        )


class TestEndToEnd:
    def test_run_produces_history(self, settings, environment):
        trainer = build_trainer(
            "helcfl", settings, environment, config_overrides={"rounds": 5}
        )
        history = trainer.run()
        assert len(history) == 5
        assert history.total_time > 0
        assert history.total_energy > 0

    def test_dvfs_saves_energy_at_same_accuracy(self, settings, environment):
        """The whole point of Algorithm 3 inside Algorithm 1."""
        with_dvfs = build_trainer("helcfl", settings, environment).run()
        without = build_trainer("helcfl-nodvfs", settings, environment).run()

        # Selection and training math identical -> same accuracy curve.
        acc_a = [r.test_accuracy for r in with_dvfs.records]
        acc_b = [r.test_accuracy for r in without.records]
        assert acc_a == acc_b
        # And DVFS cannot cost energy or time.
        assert with_dvfs.total_energy <= without.total_energy + 1e-9
        assert with_dvfs.total_time <= without.total_time + 1e-9
