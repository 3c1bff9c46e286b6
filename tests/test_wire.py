"""Tests for the wire-type table (:mod:`repro.wire`)."""

import json
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import pytest

from repro import wire
from repro.errors import SerializationError


@wire.record
@dataclass(frozen=True)
class Sample:
    index: int
    ids: Tuple[int, ...]
    rates: Dict[int, float]
    name: str = wire.one_of(("a", "b"))
    flag: bool = False
    score: Optional[float] = None
    late_ids: Optional[Tuple[int, ...]] = None


FULL = Sample(
    index=2,
    ids=(5, 3),
    rates={7: 1.5e9},
    name="b",
    flag=True,
    score=0.25,
    late_ids=(9,),
)


class TestShapes:
    @pytest.mark.parametrize("declared", list(wire.SHAPES), ids=str)
    def test_example_survives_json_with_its_type(self, declared):
        check, load, dump, example = wire.SHAPES[declared]
        plain = example if dump is None else dump(example)
        decoded = json.loads(json.dumps(plain))
        assert check(decoded)
        assert load(decoded) == example
        assert type(load(decoded)) is type(example)

    def test_checks_are_strict(self):
        assert not wire.SHAPES[int].check(True)
        assert not wire.SHAPES[float].check(True)
        assert not wire.SHAPES[float].check("1.0")
        assert wire.SHAPES[float].check(1)  # JSON has one number type
        assert not wire.SHAPES[bool].check(1)
        assert not wire.SHAPES[Tuple[int, ...]].check([1, "2"])
        assert not wire.SHAPES[Tuple[int, ...]].check((1, 2))
        assert not wire.SHAPES[Dict[int, float]].check({"1": "fast"})


class TestRecord:
    def test_dump_is_json_plain_in_field_order(self):
        payload = wire.dump(FULL)
        assert list(payload) == [
            "index", "ids", "rates", "name", "flag", "score", "late_ids",
        ]
        assert payload["ids"] == [5, 3]
        assert payload["rates"] == {"7": 1.5e9}
        assert payload["late_ids"] == [9]
        assert json.loads(json.dumps(payload)) == payload

    def test_round_trip_restores_declared_types(self):
        payload = json.loads(json.dumps(wire.dump(FULL)))
        wire.check(Sample, payload)
        rebuilt = wire.load(Sample, payload)
        assert rebuilt == FULL
        assert isinstance(rebuilt.ids, tuple)
        assert isinstance(rebuilt.late_ids, tuple)
        assert list(rebuilt.rates) == [7]

    def test_optional_fields_carry_none(self):
        bare = Sample(index=1, ids=(), rates={}, name="a")
        payload = wire.dump(bare)
        assert payload["score"] is None and payload["late_ids"] is None
        wire.check(Sample, payload)
        assert wire.load(Sample, payload) == bare

    def test_check_names_the_first_violation(self):
        good = wire.dump(FULL)
        with pytest.raises(SerializationError, match="missing field 'ids'"):
            wire.check(Sample, {"index": 1})
        with pytest.raises(SerializationError, match="'index' has invalid"):
            wire.check(Sample, dict(good, index=True))
        with pytest.raises(SerializationError, match="'name' has invalid"):
            wire.check(Sample, dict(good, name="c"))
        with pytest.raises(SerializationError, match=r"unexpected.*\['tag'\]"):
            wire.check(Sample, dict(good, tag=1))
        wire.check(Sample, dict(good, tag=1), also=("tag",))

    def test_load_defaults_absent_fields_and_ignores_extras(self):
        loaded = wire.load(
            Sample,
            {"index": 4, "ids": [1], "rates": {}, "name": "a", "tag": 1},
        )
        assert loaded == Sample(index=4, ids=(1,), rates={}, name="a")
        with pytest.raises(SerializationError, match="missing field 'rates'"):
            wire.load(Sample, {"index": 4, "ids": [1]})


class TestDeclarationErrors:
    def test_unfrozen_dataclass_is_refused(self):
        with pytest.raises(TypeError, match="frozen"):

            @wire.record
            @dataclass
            class Thawed:
                index: int

    def test_plain_class_is_refused(self):
        with pytest.raises(TypeError, match="frozen"):

            @wire.record
            class Plain:
                index: int

    @pytest.mark.parametrize(
        "declared", (List[int], Tuple[str, ...], Optional[bytes], complex)
    )
    def test_type_outside_the_table_is_refused(self, declared):
        with pytest.raises(TypeError, match="no row in repro.wire.SHAPES"):
            wire.record(
                dataclass(frozen=True)(
                    type("Odd", (), {"__annotations__": {"value": declared}})
                )
            )

    def test_one_of_needs_a_str_field(self):
        with pytest.raises(TypeError, match="one_of"):

            @wire.record
            @dataclass(frozen=True)
            class Odd:
                level: int = wire.one_of(("a",))
