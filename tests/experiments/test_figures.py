"""Tests for the Fig. 2 sweep and the Table I / Fig. 3 derivations."""

import pytest

from repro.errors import ConfigurationError
from repro.experiments.fig2 import Fig2Result, run_fig2
from repro.experiments.fig3 import FIG3_STRATEGIES, derive_fig3
from repro.experiments.reporting import (
    format_fig2_table,
    format_fig3_table,
    format_table1,
)
from repro.experiments.settings import ExperimentSettings
from repro.experiments.table1 import derive_table1


@pytest.fixture(scope="module")
def settings():
    return ExperimentSettings.quick(seed=13, rounds=10)


@pytest.fixture(scope="module")
def fig2(settings):
    return run_fig2(settings, iid=True)


@pytest.fixture(scope="module")
def twins(settings):
    """The two runs Fig. 3 compares, swept like any Fig. 2 panel."""
    return run_fig2(settings, iid=True, strategies=FIG3_STRATEGIES)


class TestFig2:
    def test_all_strategies_present(self, fig2):
        assert set(fig2.histories) == {
            "helcfl",
            "classic",
            "fedcs",
            "fedl",
            "sl",
        }

    def test_best_accuracies_in_range(self, fig2):
        for value in fig2.best_accuracies().values():
            assert 0.0 <= value <= 1.0

    def test_improvements_exclude_reference(self, fig2):
        improvements = fig2.improvements_over_baselines()
        assert "helcfl" not in improvements
        assert len(improvements) == 4

    def test_curves_nonempty(self, fig2):
        for series in fig2.curves().values():
            assert len(series) >= 1

    def test_subset_of_strategies(self, settings):
        result = run_fig2(settings, iid=True, strategies=("helcfl", "classic"))
        assert set(result.histories) == {"helcfl", "classic"}

    def test_unknown_reference_raises(self, fig2):
        with pytest.raises(ConfigurationError):
            fig2.improvements_over_baselines(reference="nope")


class TestTable1:
    def test_reuses_fig2_histories(self, fig2):
        table = derive_table1(fig2)
        assert set(table.delays) == set(fig2.histories)
        assert table.iid is fig2.iid

    def test_targets_derived_from_helcfl_ceiling(self, fig2):
        table = derive_table1(fig2)
        ceiling = fig2.histories["helcfl"].best_accuracy
        assert all(t <= ceiling + 1e-9 for t in table.targets)

    def test_explicit_targets(self, fig2):
        table = derive_table1(fig2, targets=(0.2, 0.3))
        assert table.targets == (0.2, 0.3)

    def test_helcfl_reaches_own_targets(self, fig2):
        table = derive_table1(fig2)
        for target in table.targets:
            assert table.delays["helcfl"][target] is not None

    def test_speedup_none_when_unreachable(self, fig2):
        table = derive_table1(fig2, targets=(0.999,))
        assert table.speedup(0.999, versus="classic") is None

    def test_speedup_invalid_target_raises(self, fig2):
        table = derive_table1(fig2)
        with pytest.raises(ConfigurationError):
            table.speedup(12345.0)

    def test_requires_helcfl_reference(self):
        bad = Fig2Result(iid=True, histories={})
        with pytest.raises(ConfigurationError):
            derive_table1(bad)


class TestFig3:
    def test_reduction_positive_somewhere(self, twins):
        result = derive_fig3(twins)
        assert result.total_energy_reduction > 0.0

    def test_reads_the_sweep_runs(self, twins):
        result = derive_fig3(twins)
        assert result.iid is twins.iid
        assert result.dvfs_history is twins.histories["helcfl"]
        assert result.max_frequency_history is twins.histories["helcfl-nodvfs"]

    def test_targets_match_table1(self, twins):
        table = derive_table1(twins)
        assert [e.target for e in derive_fig3(twins).entries] == list(
            table.targets
        )

    def test_identical_accuracy_trajectories(self, twins):
        result = derive_fig3(twins)
        dvfs_acc = [r.test_accuracy for r in result.dvfs_history.records]
        max_acc = [
            r.test_accuracy for r in result.max_frequency_history.records
        ]
        assert dvfs_acc == max_acc

    def test_entries_cover_targets(self, twins):
        result = derive_fig3(twins, targets=(0.2, 0.3, 0.4))
        assert [e.target for e in result.entries] == [0.2, 0.3, 0.4]

    def test_reduction_consistent_with_energies(self, twins):
        result = derive_fig3(twins)
        for entry in result.entries:
            if entry.reduction_fraction is not None:
                expected = (
                    entry.energy_without_dvfs - entry.energy_with_dvfs
                ) / entry.energy_without_dvfs
                assert entry.reduction_fraction == pytest.approx(expected)

    def test_missing_history_raises(self, fig2):
        with pytest.raises(ConfigurationError, match="helcfl-nodvfs"):
            derive_fig3(fig2)


class TestReporting:
    def test_fig2_table_mentions_schemes(self, fig2):
        text = format_fig2_table(fig2)
        assert "HELCFL" in text and "FedCS" in text and "IID" in text

    def test_table1_format_uses_x_for_unreachable(self, fig2):
        table = derive_table1(fig2, targets=(0.9999,))
        text = format_table1(table)
        assert "x" in text

    def test_fig3_format_has_saving_column(self, twins):
        result = derive_fig3(twins)
        text = format_fig3_table(result)
        assert "saving" in text and "%" in text
