"""Tests for the generic parameter sweep."""

from dataclasses import replace

import pytest

from repro.errors import ConfigurationError
from repro.experiments.runner import run_strategy
from repro.experiments.settings import ExperimentSettings
from repro.experiments.sweep import run_sweep
from tests.campaign.conftest import campaign_histories, tiny_campaign


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
        result = run_sweep(
            {"dirichlet_alpha": (0.05, 50.0)}, base=settings, iid=False
        )
        for point in result.points:
            alone = run_strategy(
                "helcfl",
                replace(settings, **point.override_dict()),
                iid=False,
            )
            assert point.history.to_json() == alone.to_json()
        sparse, dense = (p.history.total_energy for p in result.points)
        assert sparse != dense

    def test_shared_environment_matches_per_point_runs(self, base):
        # learning_rate never reaches build_environment, so the sweep
        # builds the environment once and reuses it at every point.
        settings = replace(base, rounds=3)
        result = run_sweep({"learning_rate": (0.2, 0.3)}, base=settings)
        for point in result.points:
            alone = run_strategy(
                "helcfl", replace(settings, **point.override_dict()), iid=True
            )
            assert point.history.to_json() == alone.to_json()

    def test_seed_grid_matches_per_point_runs(self, base):
        # seed reaches build_environment, so every point builds its own.
        settings = replace(base, rounds=3)
        result = run_sweep({"seed": (3, 4)}, base=settings)
        assert [p.override_dict() for p in result.points] == [
            {"seed": 3},
            {"seed": 4},
        ]
        for point in result.points:
            alone = run_strategy(
                "helcfl", replace(settings, **point.override_dict()), iid=True
            )
            assert point.history.to_json() == alone.to_json()
        first, second = (p.history.to_json() for p in result.points)
        assert first != second

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
        # A sweep made crash-safe: one spec override per grid point, in
        # grid order (the product in the order the fields are named).
        size = {"num_users": 6, "rounds": 4, "train_size": 96, "test_size": 32}
        grid = {"learning_rate": (0.2, 0.3), "local_steps": (1, 2)}
        in_process = run_sweep(
            grid,
            strategy="classic",
            base=ExperimentSettings.quick(seed=3, **size),
        )
        spec = tiny_campaign(
            seeds=(3,),
            strategies=("classic",),
            overrides=tuple(
                {"settings": dict(size, learning_rate=lr, local_steps=steps)}
                for lr in grid["learning_rate"]
                for steps in grid["local_steps"]
            ),
        )
        routed = campaign_histories(str(tmp_path / "camp"), spec)
        assert list(routed) == [f"s3-classic-c{i}-f0" for i in range(4)]
        assert list(routed.values()) == [
            p.history.to_json() for p in in_process.points
        ]
        assert len(set(routed.values())) == 4
