"""Tests for the generic parameter sweep."""

from dataclasses import replace

import pytest

from repro.errors import ConfigurationError
from repro.experiments.settings import ExperimentSettings
from repro.experiments.sweep import run_sweep


@pytest.fixture(scope="module")
def base():
    return ExperimentSettings.quick(seed=17, rounds=8)


class TestRunSweep:
    def test_grid_product_size(self, base):
        result = run_sweep(
            {"decay": (0.5, 0.9), "fraction": (0.1, 0.5)},
            base=base,
        )
        assert len(result.points) == 4

    def test_overrides_recorded(self, base):
        result = run_sweep({"decay": (0.5, 0.9)}, base=base)
        decays = sorted(p.override_dict()["decay"] for p in result.points)
        assert decays == [0.5, 0.9]

    def test_table_contains_metrics(self, base):
        result = run_sweep({"decay": (0.5,)}, base=base)
        rows = result.table()
        assert rows[0]["decay"] == 0.5
        assert "best_accuracy" in rows[0]
        assert "total_energy" in rows[0]

    def test_best_point(self, base):
        result = run_sweep({"fraction": (0.1, 0.8)}, base=base)
        best = result.best_point("best_accuracy")
        accuracies = [p.history.best_accuracy for p in result.points]
        assert best.history.best_accuracy == max(accuracies)

    def test_fraction_changes_selection_size(self, base):
        result = run_sweep({"fraction": (0.1, 0.6)}, base=base)
        sizes = {
            p.override_dict()["fraction"]: len(p.history.records[0].selected_ids)
            for p in result.points
        }
        assert sizes[0.6] > sizes[0.1]

    def test_environment_field_forces_rebuild(self, base):
        # Sweeping an environment field must still work (it rebuilds).
        result = run_sweep({"num_users": (10, 20)}, base=base)
        coverage_pops = [
            len(p.history.participation_counts()) for p in result.points
        ]
        assert all(c >= 1 for c in coverage_pops)

    def test_partition_field_forces_rebuild(self, base):
        # dirichlet_alpha reaches build_partitions, so each point needs
        # its own environment; a stale one gave identical histories.
        settings = replace(base, rounds=3, noniid_kind="dirichlet")
        grid = {"dirichlet_alpha": (0.05, 50.0)}
        reused = run_sweep(grid, base=settings, iid=False)
        rebuilt = run_sweep(
            grid, base=settings, iid=False, reuse_environment=False
        )
        assert [p.history.to_dict() for p in reused.points] == [
            p.history.to_dict() for p in rebuilt.points
        ]
        sparse, dense = (p.history.total_energy for p in reused.points)
        assert sparse != dense

    def test_unknown_field_rejected(self, base):
        with pytest.raises(ConfigurationError):
            run_sweep({"bogus_knob": (1,)}, base=base)

    def test_empty_grid_rejected(self, base):
        with pytest.raises(ConfigurationError):
            run_sweep({}, base=base)

    def test_best_point_empty_raises(self):
        from repro.experiments.sweep import SweepResult

        with pytest.raises(ConfigurationError):
            SweepResult("helcfl", True, []).best_point()


class TestCampaignRouting:
    def test_campaign_matches_in_process_bitwise(self, tmp_path):
        base = ExperimentSettings.quick(
            num_users=6, rounds=4, train_size=96, test_size=32
        )
        grid = {"learning_rate": (0.2, 0.3)}
        in_process = run_sweep(grid, base=base)
        routed = run_sweep(
            grid, base=base, campaign_dir=str(tmp_path / "camp")
        )
        assert len(routed.points) == len(in_process.points)
        for a, b in zip(in_process.points, routed.points):
            assert a.overrides == b.overrides
            assert a.history.to_json() == b.history.to_json()

    def test_campaign_route_rejects_seed_grid(self, tmp_path):
        with pytest.raises(ConfigurationError, match="seed"):
            run_sweep(
                {"seed": (0, 1)},
                base=ExperimentSettings.quick(),
                campaign_dir=str(tmp_path / "camp"),
            )
