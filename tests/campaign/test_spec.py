"""Tests for the declarative campaign spec and its expansion."""

import json

import pytest

from repro.campaign import CampaignSpec
from repro.campaign.spec import RunSpec
from repro.errors import ConfigurationError
from repro.experiments.runner import build_environment
from tests.campaign.conftest import TINY_SETTINGS, tiny_campaign


class TestExpansion:
    def test_matrix_order_seeds_outermost(self):
        spec = tiny_campaign(seeds=(0, 1), strategies=("helcfl", "classic"))
        run_ids = [run.run_id for run in spec.expand()]
        assert run_ids == [
            "s0-helcfl-c0-f0",
            "s0-classic-c0-f0",
            "s1-helcfl-c0-f0",
            "s1-classic-c0-f0",
        ]

    def test_override_and_fault_axes(self):
        spec = tiny_campaign(
            seeds=(3,),
            strategies=("helcfl",),
            overrides=({}, {"trainer": {"local_steps": 2}}),
            fault_plans=(None, {"seed": 1, "faults": []}),
        )
        run_ids = [run.run_id for run in spec.expand()]
        assert run_ids == [
            "s3-helcfl-c0-f0",
            "s3-helcfl-c0-f1",
            "s3-helcfl-c1-f0",
            "s3-helcfl-c1-f1",
        ]
        assert spec.expand()[2].trainer_overrides == {"local_steps": 2}
        assert spec.expand()[1].fault_plan == {"seed": 1, "faults": []}

    def test_expansion_is_deterministic(self):
        spec = tiny_campaign()
        assert spec.expand() == spec.expand()

    def test_run_spec_carries_matrix_constants(self):
        spec = tiny_campaign(backend="thread", workers=2, checkpoint_every=3)
        for run in spec.expand():
            assert run.backend == "thread"
            assert run.workers == 2
            assert run.checkpoint_every == 3


class TestRunSpec:
    def test_build_settings_applies_seed_last(self):
        run = tiny_campaign(seeds=(9,)).expand()[0]
        settings = run.build_settings()
        assert settings.seed == 9
        assert settings.num_users == TINY_SETTINGS["num_users"]
        assert settings.rounds == TINY_SETTINGS["rounds"]

    def test_image_shape_list_becomes_tuple(self):
        run = RunSpec(
            run_id="r",
            seed=0,
            strategy="helcfl",
            iid=True,
            profile="quick",
            settings_overrides={"image_shape": [1, 4, 4]},
        )
        assert run.build_settings().image_shape == (1, 4, 4)

    def test_round_trip(self):
        run = tiny_campaign().expand()[0]
        assert RunSpec.from_dict(run.to_dict()) == run

    def test_json_round_trip_preserves_expansion(self):
        run = tiny_campaign().expand()[0]
        rebuilt = RunSpec.from_dict(json.loads(json.dumps(run.to_dict())))
        assert rebuilt.build_settings() == run.build_settings()


class TestValidation:
    def test_sl_not_campaignable(self):
        with pytest.raises(ConfigurationError, match="not campaignable"):
            tiny_campaign(strategies=("sl",))

    def test_unknown_strategy(self):
        with pytest.raises(ConfigurationError, match="not campaignable"):
            tiny_campaign(strategies=("nope",))

    def test_bad_profile(self):
        with pytest.raises(ConfigurationError, match="profile"):
            tiny_campaign(profile="huge")

    def test_empty_axes(self):
        with pytest.raises(ConfigurationError, match="seed"):
            tiny_campaign(seeds=())
        with pytest.raises(ConfigurationError, match="strategy"):
            tiny_campaign(strategies=())
        with pytest.raises(ConfigurationError, match="override"):
            tiny_campaign(overrides=())
        with pytest.raises(ConfigurationError, match="fault-plan"):
            tiny_campaign(fault_plans=())

    def test_unknown_override_fields(self):
        with pytest.raises(ConfigurationError, match="unknown fields"):
            tiny_campaign(overrides=({"settings": {"warp_factor": 9}},))
        with pytest.raises(ConfigurationError, match="unknown sections"):
            tiny_campaign(overrides=({"model": {}},))

    def test_bad_scalars(self):
        with pytest.raises(ConfigurationError, match="checkpoint_every"):
            tiny_campaign(checkpoint_every=0)
        with pytest.raises(ConfigurationError, match="pool_workers"):
            tiny_campaign(pool_workers=0)
        with pytest.raises(ConfigurationError, match="max_retries"):
            tiny_campaign(max_retries=-1)
        with pytest.raises(ConfigurationError, match="backend"):
            tiny_campaign(backend="quantum")

    def test_name_required(self):
        with pytest.raises(ConfigurationError, match="name"):
            CampaignSpec(name="")
        with pytest.raises(ConfigurationError, match="name"):
            CampaignSpec.from_dict({"seeds": [0]})

    def test_unknown_spec_fields_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown fields"):
            CampaignSpec.from_dict({"name": "x", "retries": 3})


class TestNonFiniteOverrides:
    """Campaign JSON decodes ``NaN`` and ``Infinity``: a run built from
    such an override fails with the field named, not at chance accuracy
    or with a misleading partition error."""

    def load_run(self, tmp_path, settings):
        spec = tiny_campaign(seeds=(0,), overrides=({"settings": settings},))
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec.to_dict()))
        assert "NaN" in path.read_text() or "Infinity" in path.read_text()
        return CampaignSpec.load(str(path)).expand()[0]

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_dirichlet_alpha(self, tmp_path, value):
        run = self.load_run(
            tmp_path, {"noniid_kind": "dirichlet", "dirichlet_alpha": value}
        )
        with pytest.raises(ConfigurationError, match="dirichlet_alpha"):
            run.build_settings()

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    @pytest.mark.parametrize("field", ["class_separation", "noise_std"])
    def test_task_scale(self, tmp_path, field, value):
        run = self.load_run(tmp_path, {field: value})
        with pytest.raises(ConfigurationError, match=field):
            build_environment(run.build_settings(), iid=run.iid)


class TestSerialization:
    def test_round_trip(self):
        spec = tiny_campaign(
            fault_plans=(None, {"seed": 4, "faults": []}),
        )
        assert CampaignSpec.from_dict(spec.to_dict()) == spec

    def test_file_round_trip(self, tmp_path):
        spec = tiny_campaign()
        path = tmp_path / "spec.json"
        spec.save(str(path))
        assert CampaignSpec.load(str(path)) == spec

    def test_to_json_is_deterministic(self):
        assert tiny_campaign().to_json() == tiny_campaign().to_json()

    def test_example_spec_is_valid(self):
        spec = CampaignSpec.load("examples/campaign_smoke.json")
        assert spec.name == "smoke"
        assert len(spec.expand()) == 8

