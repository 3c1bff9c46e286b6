"""Unit tests for fault plans: validation and the JSON round-trip."""

import json

import pytest

from repro.errors import ConfigurationError
from repro.faults import (
    FAULT_TYPES,
    BatteryDeathFault,
    ChannelFault,
    DropoutFault,
    FaultPlan,
    FaultSpec,
    StragglerFault,
)


def full_plan(seed=42):
    """One spec of every kind, exercising every non-default field."""
    return FaultPlan(
        seed=seed,
        faults=(
            DropoutFault(phase="before_compute", probability=0.05),
            DropoutFault(
                phase="during_compute", progress=0.6, probability=0.03
            ),
            StragglerFault(slowdown=2.5, probability=0.1, rounds=(2, 4)),
            ChannelFault(mode="degrade", rate_scale=0.5, probability=0.1),
            ChannelFault(mode="outage", probability=0.02, device_id=1),
            BatteryDeathFault(device_id=3, rounds=(20,)),
        ),
    )


class TestSpecValidation:
    def test_negative_device_id_rejected(self):
        with pytest.raises(ConfigurationError, match="device_id"):
            FaultSpec(device_id=-1)

    def test_empty_rounds_rejected(self):
        with pytest.raises(ConfigurationError, match="rounds"):
            FaultSpec(rounds=())

    def test_non_positive_round_rejected(self):
        with pytest.raises(ConfigurationError, match="rounds"):
            FaultSpec(rounds=(1, 0))

    @pytest.mark.parametrize("probability", [0.0, -0.1, 1.5])
    def test_probability_outside_unit_interval_rejected(self, probability):
        with pytest.raises(ConfigurationError, match="probability"):
            FaultSpec(probability=probability)

    def test_rounds_coerced_to_int_tuple(self):
        spec = FaultSpec(rounds=[3.0, 1])
        assert spec.rounds == (3, 1)

    def test_armed_in_round(self):
        assert FaultSpec().armed_in_round(1)
        assert FaultSpec().armed_in_round(999)
        targeted = FaultSpec(rounds=(2, 5))
        assert targeted.armed_in_round(2)
        assert targeted.armed_in_round(5)
        assert not targeted.armed_in_round(3)

    def test_dropout_phase_validated(self):
        with pytest.raises(ConfigurationError, match="phase"):
            DropoutFault(phase="mid_upload")

    @pytest.mark.parametrize("progress", [0.0, 1.2])
    def test_dropout_progress_validated(self, progress):
        with pytest.raises(ConfigurationError, match="progress"):
            DropoutFault(phase="during_compute", progress=progress)

    def test_straggler_slowdown_below_one_rejected(self):
        with pytest.raises(ConfigurationError, match="slowdown"):
            StragglerFault(slowdown=0.9)

    @pytest.mark.parametrize("slowdown", [float("nan"), float("inf")])
    def test_straggler_slowdown_non_finite_rejected(self, slowdown):
        with pytest.raises(ConfigurationError, match="slowdown must be >= 1"):
            StragglerFault(slowdown=slowdown)

    @pytest.mark.parametrize(
        "kwargs",
        [{"probability": float("nan")}, {"progress": float("nan")}],
    )
    def test_nan_fails_the_unit_interval_guards(self, kwargs):
        with pytest.raises(ConfigurationError, match=next(iter(kwargs))):
            DropoutFault(phase="during_compute", **kwargs)

    def test_channel_mode_validated(self):
        with pytest.raises(ConfigurationError, match="mode"):
            ChannelFault(mode="jam")

    @pytest.mark.parametrize("rate_scale", [0.0, 1.5])
    def test_channel_rate_scale_validated(self, rate_scale):
        with pytest.raises(ConfigurationError, match="rate_scale"):
            ChannelFault(mode="degrade", rate_scale=rate_scale)

    def test_registry_covers_every_kind(self):
        assert set(FAULT_TYPES) == {
            "dropout",
            "straggler",
            "channel",
            "battery_death",
        }
        for kind, cls in FAULT_TYPES.items():
            assert cls.kind == kind


class TestPlanValidation:
    def test_empty_plan_properties(self):
        plan = FaultPlan()
        assert plan.is_empty
        assert not plan
        assert len(plan) == 0

    def test_populated_plan_properties(self):
        plan = full_plan()
        assert not plan.is_empty
        assert plan
        assert len(plan) == 6

    def test_non_spec_fault_rejected(self):
        with pytest.raises(ConfigurationError, match="FaultSpec"):
            FaultPlan(faults=({"type": "dropout"},))

    def test_faults_coerced_to_tuple(self):
        plan = FaultPlan(faults=[DropoutFault()])
        assert isinstance(plan.faults, tuple)


class TestSerialization:
    def test_dict_round_trip(self):
        plan = full_plan()
        assert FaultPlan.from_dict(plan.to_dict()) == plan

    def test_json_round_trip(self):
        plan = full_plan(seed=9)
        restored = FaultPlan.from_json(plan.to_json())
        assert restored == plan
        assert restored.seed == 9

    def test_to_dict_is_json_serializable(self):
        payload = json.loads(full_plan().to_json())
        assert payload["seed"] == 42
        assert [f["type"] for f in payload["faults"]] == [
            "dropout",
            "dropout",
            "straggler",
            "channel",
            "channel",
            "battery_death",
        ]

    def test_file_round_trip(self, tmp_path):
        path = tmp_path / "plan.json"
        plan = full_plan()
        plan.save(str(path))
        assert FaultPlan.load(str(path)) == plan

    def test_empty_payload_is_empty_plan(self):
        assert FaultPlan.from_dict({}).is_empty

    def test_unknown_type_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown type"):
            FaultPlan.from_dict({"faults": [{"type": "meteor"}]})

    def test_missing_type_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown type"):
            FaultPlan.from_dict({"faults": [{"probability": 0.5}]})

    def test_unknown_field_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown fields"):
            FaultPlan.from_dict(
                {"faults": [{"type": "dropout", "severity": 3}]}
            )

    def test_non_object_payload_rejected(self):
        with pytest.raises(ConfigurationError, match="JSON object"):
            FaultPlan.from_dict([1, 2])

    def test_non_object_fault_rejected(self):
        with pytest.raises(ConfigurationError, match=r"faults\[0\]"):
            FaultPlan.from_dict({"faults": ["dropout"]})

    def test_invalid_field_value_surfaces_spec_error(self):
        with pytest.raises(ConfigurationError, match="probability"):
            FaultPlan.from_dict(
                {"faults": [{"type": "straggler", "probability": 2.0}]}
            )

    def test_example_plan_file_loads(self):
        from pathlib import Path

        example = (
            Path(__file__).resolve().parents[2]
            / "examples"
            / "fault_plan.json"
        )
        plan = FaultPlan.load(str(example))
        assert plan.seed == 42
        assert len(plan) == 6
        assert FaultPlan.from_json(plan.to_json()) == plan
