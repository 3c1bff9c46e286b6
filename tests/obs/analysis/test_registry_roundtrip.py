"""Registry meta-test: every event kind survives the full wire cycle.

``to_dict()`` → JSON → schema validation → loader reconstruction must
be the identity for *every* kind in ``EVENT_TYPES`` — including kinds
added after this test was written, because instances are synthesized
from the wire table's example value for each declared field type
(:data:`repro.wire.SHAPES`) rather than hand-listed.
"""

from dataclasses import fields

import json

import pytest

from repro.network.tdma import CLIENT_OUTCOMES
from repro.obs import (
    EVENT_SCHEMAS,
    EVENT_TYPES,
    DeviceRoundEvent,
    validate_event,
)
from repro.obs.analysis import event_from_payload


def synthesize(cls):
    """Build a wire record from the example value of each field's shape."""
    return cls(**{field.name: field.example for field in cls.__wire__})


class TestRegistryRoundTrip:
    def test_registry_and_schema_cover_the_same_kinds(self):
        assert set(EVENT_TYPES) == set(EVENT_SCHEMAS)

    @pytest.mark.parametrize("kind", sorted(EVENT_TYPES))
    def test_every_kind_round_trips_through_the_wire(self, kind):
        original = synthesize(EVENT_TYPES[kind])
        payload = json.loads(json.dumps(original.to_dict()))
        assert validate_event(payload) == kind
        rebuilt = event_from_payload(payload)
        assert rebuilt == original
        assert type(rebuilt) is type(original)

    @pytest.mark.parametrize("kind", sorted(EVENT_TYPES))
    def test_reconstruction_restores_declared_field_types(self, kind):
        original = synthesize(EVENT_TYPES[kind])
        rebuilt = event_from_payload(json.loads(json.dumps(original.to_dict())))
        for spec in fields(type(original)):
            got = getattr(rebuilt, spec.name)
            want = getattr(original, spec.name)
            assert type(got) is type(want), spec.name


class TestOutcomeVocabulary:
    def test_schema_outcomes_match_the_simulator(self):
        # The event keeps the vocabulary literal (no dependency on the
        # simulator); this pins the two so they cannot drift apart.
        (declared,) = [
            spec.metadata["one_of"]
            for spec in fields(DeviceRoundEvent)
            if spec.name == "outcome"
        ]
        assert declared == CLIENT_OUTCOMES
        is_outcome = EVENT_SCHEMAS["device_round"]["outcome"]
        assert all(is_outcome(outcome) for outcome in CLIENT_OUTCOMES)
        assert not is_outcome("exploded")
        assert not is_outcome(1)
