"""Tests for the Fig. 2 sweep and the Table I / Fig. 3 derivations."""

import re
from pathlib import Path

import pytest

from repro.errors import ConfigurationError
from repro.experiments import fig2 as fig2_module
from repro.experiments.fig2 import Fig2Result, run_fig2
from repro.experiments.fig3 import derive_fig3, max_frequency_history
from repro.experiments.reporting import (
    format_fig2_table,
    format_fig3_table,
    format_table1,
)
from repro.experiments.settings import ExperimentSettings
from repro.experiments.table1 import Table1Result, derive_table1
from repro.faults import FaultPlan

FAULT_PLAN = Path(__file__).resolve().parents[2] / "examples" / "fault_plan.json"


@pytest.fixture(scope="module")
def settings():
    return ExperimentSettings.quick(seed=13, rounds=10)


@pytest.fixture(scope="module")
def fig2(settings):
    return run_fig2(settings, iid=True)


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

    @pytest.mark.parametrize(
        "strategies, match",
        [((), "at least one"), (("helcfl", "helcfl"), "distinct")],
        ids=["empty", "repeated"],
    )
    def test_strategies_refused_before_build(self, monkeypatch, strategies, match):
        # A repeated name would train twice and keep one history.
        def build_environment(*args, **kwargs):
            raise AssertionError("built an environment")

        monkeypatch.setattr(fig2_module, "build_environment", build_environment)
        with pytest.raises(ConfigurationError, match=match):
            run_fig2(
                ExperimentSettings.quick(num_users=6, rounds=1),
                strategies=strategies,
            )


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
    def test_reduction_positive_somewhere(self, fig2):
        result = derive_fig3(fig2)
        assert result.total_energy_reduction > 0.0

    def test_reads_the_sweep_runs(self, fig2):
        result = derive_fig3(fig2)
        assert result.iid is fig2.iid
        assert result.dvfs_history is fig2.histories["helcfl"]
        assert result.max_frequency_history.label == "HELCFL (no DVFS)"

    def test_targets_match_table1(self, fig2):
        table = derive_table1(fig2)
        assert [e.target for e in derive_fig3(fig2).entries] == list(
            table.targets
        )

    def test_identical_accuracy_trajectories(self, fig2):
        result = derive_fig3(fig2)
        dvfs_acc = [r.test_accuracy for r in result.dvfs_history.records]
        max_acc = [
            r.test_accuracy for r in result.max_frequency_history.records
        ]
        assert dvfs_acc == max_acc

    def test_entries_cover_targets(self, fig2):
        result = derive_fig3(fig2, targets=(0.2, 0.3, 0.4))
        assert [e.target for e in result.entries] == [0.2, 0.3, 0.4]

    def test_reduction_consistent_with_energies(self, fig2):
        result = derive_fig3(fig2)
        for entry in result.entries:
            if entry.reduction_fraction is not None:
                expected = (
                    entry.energy_without_dvfs - entry.energy_with_dvfs
                ) / entry.energy_without_dvfs
                assert entry.reduction_fraction == pytest.approx(expected)

    def test_missing_history_raises(self, fig2):
        without = {k: v for k, v in fig2.histories.items() if k != "helcfl"}
        with pytest.raises(ConfigurationError, match="helcfl"):
            derive_fig3(Fig2Result(fig2.iid, without, fig2.environment))

    def test_missing_environment_raises(self, fig2):
        # A Fig. 2 artifact loaded from disk has no fleet to replay.
        with pytest.raises(ConfigurationError, match="environment"):
            derive_fig3(Fig2Result(fig2.iid, fig2.histories))

    @pytest.mark.parametrize(
        "chaos",
        [
            {"faults": FaultPlan.load(str(FAULT_PLAN))},
            {"config_overrides": {"round_deadline_s": 1.0}},
            # Leaves the timeline alone but loses the device's update.
            {"faults": FaultPlan.from_dict(
                {"faults": [{"type": "battery_death", "rounds": [2]}]}
            )},
        ],
        ids=["fault_plan", "deadline", "battery_death"],
    )
    def test_degraded_rounds_refused(self, settings, chaos):
        # A degraded round has no max-frequency replay: the twin would
        # have degraded differently (or the cause is not recorded).
        fig2 = run_fig2(settings, iid=True, strategies=("helcfl",), **chaos)
        with pytest.raises(ConfigurationError, match=r"round \d+ of 'HELCFL'"):
            derive_fig3(fig2)


@pytest.mark.parametrize(
    "iid, seed", [(True, 7), (False, 7), (True, 3)], ids=["iid", "noniid", "iid-seed3"]
)
def test_max_frequency_history_equals_trained_twin(iid, seed):
    # Algorithm 3 changes only frequencies: replaying the HELCFL run at
    # f_max gives the trained no-DVFS run, every record to the bit.
    # benchmarks/bench_multiseed.py reads its DVFS saving off this replay.
    fig2 = run_fig2(
        ExperimentSettings.quick(seed=seed),
        iid=iid,
        strategies=("helcfl", "helcfl-nodvfs"),
    )
    trained = fig2.histories["helcfl-nodvfs"]
    replayed = max_frequency_history(fig2.histories["helcfl"], fig2.environment)
    # Every RoundRecord, the label and the stop reason; the JSON also
    # pins each round's frequency key order.
    assert replayed == trained
    assert replayed.to_json() == trained.to_json()


class TestReporting:
    def test_fig2_table_mentions_schemes(self, fig2):
        text = format_fig2_table(fig2)
        assert "HELCFL" in text and "FedCS" in text and "IID" in text

    def test_table1_format_uses_x_for_unreachable(self, fig2):
        table = derive_table1(fig2, targets=(0.9999,))
        text = format_table1(table)
        assert "x" in text

    def test_table1_headers_align_with_delay_cells(self):
        table = Table1Result(
            iid=True,
            targets=(0.0675, 0.1, 0.5),
            delays={
                "helcfl": {0.0675: 7.2, 0.1: 700.0, 0.5: None},
                "helcfl-nodvfs": {0.0675: 7.2, 0.1: None, 0.5: 61.0},
            },
        )
        header, *rows = format_table1(table).splitlines()[1:]
        assert "6.75%" in header

        def cell_ends(line):
            return [m.end() for m in re.finditer(r"\S+", line)][-3:]

        for row in rows:
            assert cell_ends(row) == cell_ends(header)

    def test_fig3_format_has_saving_column(self, fig2):
        result = derive_fig3(fig2)
        text = format_fig3_table(result)
        assert "saving" in text and "%" in text
