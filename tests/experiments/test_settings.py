"""Tests for ExperimentSettings."""

import pytest

from repro.errors import ConfigurationError
from repro.experiments.runner import build_environment
from repro.experiments.settings import ExperimentSettings

NON_FINITE = [float("nan"), float("inf")]


class TestDefaults:
    def test_paper_constants(self):
        s = ExperimentSettings()
        assert s.num_users == 100
        assert s.fraction == 0.1
        assert s.rounds == 300
        assert s.bandwidth_hz == pytest.approx(2e6)
        assert s.transmit_power_w == pytest.approx(0.2)
        assert s.switched_capacitance == pytest.approx(2e-28)
        assert s.f_min_hz == pytest.approx(0.3e9)
        assert s.f_max_high_hz == pytest.approx(2.0e9)
        assert s.shards_per_user == 4

    def test_selected_per_round(self):
        assert ExperimentSettings().selected_per_round == 10
        assert ExperimentSettings.quick().selected_per_round == 2

    def test_scaled_workload_matches_paper(self):
        """pi * |D_q| stays at the paper's 5e9 cycles per round."""
        s = ExperimentSettings()
        samples_per_user = s.train_size // s.num_users
        assert s.cycles_per_sample * samples_per_user == pytest.approx(5e9)

    def test_paper_scale_profile(self):
        s = ExperimentSettings.paper_scale()
        assert s.train_size == 50_000
        assert s.cycles_per_sample == pytest.approx(1e7)
        assert s.model == "squeezenet"
        # 500 samples/user at pi=1e7 -> same 5e9 cycles.
        assert s.cycles_per_sample * 500 == pytest.approx(5e9)

    def test_quick_profile_overrides(self):
        s = ExperimentSettings.quick(seed=9, rounds=5)
        assert s.rounds == 5
        assert s.seed == 9


class TestValidation:
    def test_invalid_model(self):
        with pytest.raises(ConfigurationError):
            ExperimentSettings(model="resnet")

    def test_train_size_must_cover_shards(self):
        with pytest.raises(ConfigurationError):
            ExperimentSettings(num_users=100, train_size=300, shards_per_user=4)

    def test_invalid_users(self):
        with pytest.raises(ConfigurationError):
            ExperimentSettings(num_users=0)

    @pytest.mark.parametrize("value", NON_FINITE, ids=["nan", "inf"])
    def test_non_finite_dirichlet_alpha_rejected(self, value):
        with pytest.raises(ConfigurationError, match="dirichlet_alpha"):
            ExperimentSettings.quick(noniid_kind="dirichlet", dirichlet_alpha=value)

    @pytest.mark.parametrize("value", NON_FINITE, ids=["nan", "inf"])
    @pytest.mark.parametrize(
        "field", ["class_separation", "within_class_std", "noise_std"]
    )
    def test_non_finite_task_scale_rejected(self, field, value):
        """A NaN or infinite scale used to train to chance accuracy."""
        settings = ExperimentSettings.quick(**{field: value})
        with pytest.raises(ConfigurationError, match=field):
            build_environment(settings, iid=True)


class TestBuilders:
    def test_fleet_spec_propagates(self):
        s = ExperimentSettings.quick()
        spec = s.fleet_spec()
        assert spec.cycles_per_sample == s.cycles_per_sample
        assert spec.transmit_power_w == s.transmit_power_w

    def test_trainer_config_propagates(self):
        s = ExperimentSettings.quick()
        config = s.trainer_config()
        assert config.rounds == s.rounds
        assert config.bandwidth_hz == s.bandwidth_hz

    def test_trainer_config_overrides(self):
        s = ExperimentSettings.quick()
        config = s.trainer_config(rounds=2, deadline_s=10.0)
        assert config.rounds == 2
        assert config.deadline_s == 10.0

    def test_build_task_sizes(self):
        s = ExperimentSettings.quick()
        task = s.build_task()
        assert len(task.train) == s.train_size
        assert len(task.test) == s.test_size

    def test_build_partitions_iid_and_noniid(self):
        s = ExperimentSettings.quick()
        task = s.build_task()
        iid = s.build_partitions(task.train, iid=True)
        non = s.build_partitions(task.train, iid=False)
        assert len(iid) == len(non) == s.num_users

        def classes_per_user(partitions):
            counts = [p.class_counts(s.num_classes) for p in partitions]
            return sum(int((c > 0).sum()) for c in counts) / len(counts)

        assert classes_per_user(non) < classes_per_user(iid)

    def test_build_model_mlp(self):
        s = ExperimentSettings.quick()
        model = s.build_model(flattened=True)
        flat_dim = s.image_shape[0] * s.image_shape[1] * s.image_shape[2]
        import numpy as np

        assert model.forward(np.zeros((2, flat_dim))).shape == (2, s.num_classes)

    def test_build_model_cnn(self):
        s = ExperimentSettings.quick(model="cnn")
        model = s.build_model(flattened=False)
        import numpy as np

        assert model.forward(np.zeros((2,) + s.image_shape)).shape == (
            2,
            s.num_classes,
        )

    def test_mlp_incompatible_with_conv_path(self):
        s = ExperimentSettings.quick(model="cnn")
        with pytest.raises(ConfigurationError):
            s.build_model(flattened=True)

    def test_task_deterministic_per_seed(self):
        import numpy as np

        a = ExperimentSettings.quick(seed=5).build_task()
        b = ExperimentSettings.quick(seed=5).build_task()
        assert np.array_equal(a.train.inputs, b.train.inputs)
