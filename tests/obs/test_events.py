"""Unit tests for trace events and their wire schema."""

import json
from dataclasses import dataclass
from typing import List, Optional, Tuple

import pytest

from repro.errors import SerializationError
from repro.obs import (
    EVENT_SCHEMAS,
    EVENT_TYPES,
    AggregationEvent,
    BatteryDropEvent,
    ClientDroppedEvent,
    DeviceRoundEvent,
    EvalEvent,
    Event,
    FaultInjectedEvent,
    FrequencyAssignmentEvent,
    RoundDegradedEvent,
    RunStopEvent,
    SelectionEvent,
    SpanEndEvent,
    SpanStartEvent,
    StopReason,
    TimelineEvent,
    WorkerResourceEvent,
    validate_event,
    validate_trace_lines,
)

SAMPLE_EVENTS = [
    SelectionEvent(round_index=1, selected_ids=(3, 1, 2)),
    FrequencyAssignmentEvent(round_index=1, frequencies={3: 1.5e9, 1: 0.7e9}),
    FaultInjectedEvent(
        round_index=1,
        device_id=3,
        fault="straggler",
        detail="slowdown",
        magnitude=2.5,
    ),
    ClientDroppedEvent(
        round_index=1, device_id=3, cause="dropout", phase="compute"
    ),
    RoundDegradedEvent(
        round_index=1,
        planned=3,
        aggregated=2,
        dropped_ids=(3,),
        timeout_ids=(),
        reassigned_frequencies=False,
    ),
    DeviceRoundEvent(
        round_index=1,
        device_id=3,
        frequency=0.9e9,
        f_max=1.5e9,
        compute_delay=1.2,
        upload_delay=0.4,
        slack=0.0,
        compute_energy=2.1,
        upload_energy=0.3,
        outcome="ok",
    ),
    TimelineEvent(
        round_index=1,
        round_delay=2.0,
        round_energy=3.0,
        compute_energy=2.5,
        upload_energy=0.5,
        slack=0.1,
        cumulative_time=2.0,
        cumulative_energy=3.0,
    ),
    BatteryDropEvent(round_index=2, dropped_ids=(1,)),
    SpanStartEvent(
        round_index=2,
        span_id="round-2/task-3",
        parent_id="round-2/local_updates",
        name="task",
        t_wall=1700000000.25,
        pid=4242,
    ),
    WorkerResourceEvent(
        round_index=2,
        span_id="round-2/task-3",
        pid=4242,
        rss_peak_kb=51200.0,
        cpu_user_s=0.75,
        cpu_sys_s=0.05,
    ),
    SpanEndEvent(
        round_index=2,
        span_id="round-2/task-3",
        t_wall=1700000000.5,
        duration_s=0.25,
        pid=4242,
    ),
    AggregationEvent(round_index=2, num_updates=2, total_weight=80.0),
    EvalEvent(round_index=2, test_loss=1.1, test_accuracy=0.4),
    RunStopEvent(
        round_index=2,
        reason=StopReason.DEADLINE.value,
        cumulative_time=4.0,
        cumulative_energy=6.0,
        label="HELCFL",
    ),
]


class TestEventShape:
    @pytest.mark.parametrize("event", SAMPLE_EVENTS, ids=lambda e: e.kind)
    def test_to_dict_json_round_trip_validates(self, event):
        payload = json.loads(json.dumps(event.to_dict()))
        assert validate_event(payload) == event.kind

    def test_registry_covers_every_kind(self):
        assert set(EVENT_TYPES) == set(EVENT_SCHEMAS)
        assert {e.kind for e in SAMPLE_EVENTS} == set(EVENT_TYPES)

    def test_tuples_serialize_as_lists(self):
        payload = SelectionEvent(round_index=1, selected_ids=(9, 4)).to_dict()
        assert payload["selected_ids"] == [9, 4]

    def test_frequency_keys_serialize_as_strings(self):
        payload = FrequencyAssignmentEvent(
            round_index=1, frequencies={7: 1e9}
        ).to_dict()
        assert payload["frequencies"] == {"7": 1e9}

    def test_stop_reasons_are_stable_strings(self):
        assert {r.value for r in StopReason} == {
            "rounds_exhausted",
            "deadline",
            "target_accuracy",
            "plateau",
            "error",
        }


@pytest.fixture
def scratch_registry():
    """Let a test declare throwaway event kinds; forget them afterwards."""
    before = dict(EVENT_TYPES)
    yield
    EVENT_TYPES.clear()
    EVENT_TYPES.update(before)


class TestDeclaringAnEvent:
    """Subclassing :class:`Event` is the whole job of adding a kind."""

    def test_new_kind_dumps_validates_and_loads(self, scratch_registry):
        from repro.obs.analysis import event_from_payload

        class RollupEvent(Event):
            kind = "rollup"

            round_index: int
            device_ids: Tuple[int, ...]
            mean_slack: Optional[float] = None

        assert EVENT_TYPES["rollup"] is RollupEvent
        assert set(EVENT_SCHEMAS["rollup"]) == {
            "round_index", "device_ids", "mean_slack",
        }
        event = RollupEvent(round_index=3, device_ids=(4, 2))
        line = json.dumps(event.to_dict())
        assert line == (
            '{"event": "rollup", "round_index": 3, "device_ids": [4, 2], '
            '"mean_slack": null}'
        )
        assert validate_event(json.loads(line)) == "rollup"
        rebuilt = event_from_payload(json.loads(line))
        assert rebuilt == event and type(rebuilt) is RollupEvent
        assert json.dumps(rebuilt.to_dict()) == line
        with pytest.raises(AttributeError):
            event.round_index = 4  # frozen without saying so
        with pytest.raises(SerializationError, match="mean_slack"):
            validate_event({**event.to_dict(), "mean_slack": "long"})

    def test_unfreezing_decorator_is_refused(self, scratch_registry):
        with pytest.raises(TypeError, match="non-frozen"):

            @dataclass
            class ThawedEvent(Event):
                kind = "thawed"

                round_index: int

    def test_field_type_outside_the_wire_table_is_refused(
        self, scratch_registry
    ):
        with pytest.raises(TypeError, match="no row in repro.wire.SHAPES"):

            class LooseEvent(Event):
                kind = "loose"

                round_index: int
                device_ids: List[int]

        assert "loose" not in EVENT_TYPES

    def test_kind_must_be_own_and_unused(self, scratch_registry):
        with pytest.raises(TypeError, match="kind"):

            class NamelessEvent(Event):
                round_index: int

        with pytest.raises(TypeError, match="kind"):

            class SecondSelectionEvent(Event):
                kind = "selection"

                round_index: int

        assert EVENT_TYPES["selection"] is SelectionEvent


class TestValidation:
    def test_unknown_kind_rejected(self):
        with pytest.raises(SerializationError):
            validate_event({"event": "mystery", "round_index": 1})

    def test_non_string_kind_rejected(self):
        with pytest.raises(SerializationError):
            validate_event({"event": ["selection"], "round_index": 1})

    def test_non_object_rejected(self):
        with pytest.raises(SerializationError):
            validate_event([1, 2, 3])

    def test_missing_field_rejected(self):
        with pytest.raises(SerializationError):
            validate_event({"event": "selection", "round_index": 1})

    def test_extra_field_rejected(self):
        with pytest.raises(SerializationError):
            validate_event(
                {
                    "event": "selection",
                    "round_index": 1,
                    "selected_ids": [1],
                    "surprise": True,
                }
            )

    def test_wrong_type_rejected(self):
        with pytest.raises(SerializationError):
            validate_event(
                {
                    "event": "selection",
                    "round_index": 1,
                    "selected_ids": ["one"],
                }
            )

    def test_unknown_stop_reason_rejected(self):
        payload = RunStopEvent(
            round_index=1,
            reason="because",
            cumulative_time=0.0,
            cumulative_energy=0.0,
        ).to_dict()
        with pytest.raises(SerializationError):
            validate_event(payload)

    def test_trace_lines_count_and_blank_lines(self):
        lines = [json.dumps(e.to_dict()) for e in SAMPLE_EVENTS] + ["", "  "]
        assert validate_trace_lines(lines) == len(SAMPLE_EVENTS)

    def test_trace_lines_bad_json_names_line(self):
        with pytest.raises(SerializationError, match="<lines>:2 "):
            validate_trace_lines(
                [json.dumps(SAMPLE_EVENTS[0].to_dict()), "{not json"]
            )
