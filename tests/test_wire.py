"""Tests for the wire-type table (:mod:`repro.wire`).

Leaf shapes and records first; then every wire record in the library
round-trips from synthesized examples, and every JSON *document* the
library reads is run through one table of hostile mutations.
"""

import copy
import hashlib
import importlib
import json
import os
import pkgutil
import re
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import numpy as np
import pytest

import repro
from repro import wire
from repro.campaign import (
    CampaignManifest,
    CampaignSpec,
    RunSpec,
    load_aggregate,
)
from repro.campaign.aggregate import AGGREGATE_SCHEMA, _Aggregate
from repro.campaign.manifest import RunStatus
from repro.campaign.runner import truncate_trace
from repro.campaign.watch import line_round, scan_trace_progress
from repro.errors import ConfigurationError, ReproError, SerializationError
from repro.experiments import export
from repro.faults import FAULT_TYPES, FaultPlan, FaultSpec
from repro.energy.accounting import EnergyLedger
from repro.fl.checkpoint import (
    CHECKPOINT_SCHEMA,
    CHECKPOINT_VERSION,
    HistoryPrefix,
    TrainerCheckpoint,
    load_checkpoint,
    save_checkpoint,
)
from repro.fl.history import RoundRecord, TrainingHistory
from repro.obs import validate
from repro.obs.analysis import RunStats, SpanSummary, load_trace
from repro.obs.events import EVENT_TYPES, Event
from repro.obs.schema import validate_trace
from tests.oracles.checkpoint_v1 import save_checkpoint_v1

REPO = Path(__file__).resolve().parents[1]


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
        assert np.array_equal(load(decoded), example)
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
        with pytest.raises(SerializationError, match=r"Sample\.index has invalid"):
            wire.check(Sample, dict(good, index=True))
        with pytest.raises(SerializationError, match=r"Sample\.name has invalid"):
            wire.check(Sample, dict(good, name="c"))
        with pytest.raises(SerializationError, match=r"unknown fields \['tag'\]"):
            wire.check(Sample, dict(good, tag=1))
        wire.check(Sample, dict(good, tag=1), also=("tag",))

    def test_load_defaults_absent_fields_and_rejects_extras(self):
        bare = {"index": 4, "ids": [1], "rates": {}, "name": "a"}
        want = Sample(index=4, ids=(1,), rates={}, name="a")
        assert wire.load(Sample, bare) == want
        with pytest.raises(SerializationError, match="missing field 'rates'"):
            wire.load(Sample, {"index": 4, "ids": [1]})
        with pytest.raises(
            SerializationError, match=r"Sample has unknown fields \['tag'\]"
        ):
            wire.load(Sample, dict(bare, tag=1))
        assert wire.load(Sample, dict(bare, tag=1), also=("tag",)) == want

    def test_load_checks_every_present_field_and_names_its_path(self):
        bare = {"index": 4, "ids": [1], "rates": {}, "name": "a"}
        for key, value in (
            ("index", True), ("index", 4.0), ("ids", "12"), ("name", "c"),
            ("flag", "false"), ("score", "high"), ("rates", {"x": 1.0}),
        ):
            with pytest.raises(
                ConfigurationError, match=rf"a sample\.{key} has invalid"
            ):
                wire.load(
                    Sample, dict(bare, **{key: value}), "a sample",
                    ConfigurationError,
                )
        with pytest.raises(SerializationError, match="must be a JSON object"):
            wire.load(Sample, [1, 2])


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
        "declared", (List[int], Tuple[bool, ...], Optional[bytes], complex)
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


# ----------------------------------------------------------------------
# Every record in the library, synthesized from the table's examples
# ----------------------------------------------------------------------
def library_records():
    """Every class under :mod:`repro` that :func:`wire.record` resolved."""
    found = {}
    for info in pkgutil.walk_packages(repro.__path__, prefix="repro."):
        if info.name.endswith("__main__"):
            continue
        module = importlib.import_module(info.name)
        for cls in vars(module).values():
            if isinstance(cls, type) and "__wire__" in vars(cls):
                found[f"{cls.__module__}.{cls.__qualname__}"] = cls
    return found


RECORDS = library_records()


def synthesize(cls):
    """A ``cls`` built from each field's example value.

    A document whose constructor validates domains (a status vocabulary,
    campaignable strategies) refuses arbitrary examples; its defaults
    are then its known-valid values.
    """
    try:
        return cls(**{f.name: f.example for f in cls.__wire__})
    except ReproError:
        return cls(
            **{f.name: f.example for f in cls.__wire__ if not f.has_default}
        )


def family_of(cls):
    """The tagged family base ``cls`` is a member of, else ``None``."""
    return next((b for b in cls.__mro__ if "__tag__" in vars(b)), None)


def assert_round_trips(original):
    cls = type(original)
    family = family_of(cls)
    plain = original.to_dict() if family else wire.dump(original)
    decoded = json.loads(json.dumps(plain))
    rebuilt = wire.load(family or cls, decoded)
    assert type(rebuilt) is cls
    assert (rebuilt.to_dict() if family else wire.dump(rebuilt)) == plain
    for spec in fields(cls):
        got, want = getattr(rebuilt, spec.name), getattr(original, spec.name)
        assert type(got) is type(want), spec.name


class TestEveryRecordRoundTrips:
    def test_the_walk_finds_leaf_records_documents_and_both_families(self):
        found = set(RECORDS.values())
        assert {RoundRecord, TrainingHistory, RunStats, SpanSummary,
                FaultPlan, CampaignSpec, RunSpec, TrainerCheckpoint} <= found
        assert set(EVENT_TYPES.values()) | set(FAULT_TYPES.values()) <= found

    @pytest.mark.parametrize("name", sorted(RECORDS))
    def test_synthesized_example_survives_json(self, name):
        assert_round_trips(synthesize(RECORDS[name]))

    @pytest.mark.parametrize("name", sorted(RECORDS))
    def test_compiled_line_is_json_dumps_of_the_dump(self, name):
        original = synthesize(RECORDS[name])
        plain = original.to_dict() if family_of(type(original)) else wire.dump(original)
        assert type(original).__line__.line(original) == json.dumps(plain) + "\n"

    @pytest.mark.parametrize("kind", sorted(FAULT_TYPES))
    def test_fault_type_round_trips_with_targeting_knobs_set(self, kind):
        spec = FAULT_TYPES[kind](device_id=3, rounds=(2, 1), probability=0.5)
        assert_round_trips(spec)
        plan = FaultPlan(seed=9, faults=(spec,))
        assert FaultPlan.from_json(plan.to_json()) == plan

    def test_families_dispatch_on_their_own_tag_key(self):
        assert FaultSpec.__tag__ == "type" and Event.__tag__ == "event"
        with pytest.raises(SerializationError, match="unknown event 'dropout'"):
            wire.load(Event, {"event": "dropout"}, "trace event")
        with pytest.raises(ConfigurationError, match="unknown type 'selection'"):
            wire.load(FaultSpec, {"type": "selection"}, "x", ConfigurationError)

    def test_reused_kind_and_second_decorator_are_refused(self):
        before = dict(FAULT_TYPES)
        try:
            with pytest.raises(TypeError, match="kind"):

                class SecondDropout(FaultSpec):
                    kind = "dropout"

            with pytest.raises(TypeError, match="non-frozen"):

                @dataclass
                class Thawed(FaultSpec):
                    kind = "thawed"

        finally:
            FAULT_TYPES.clear()
            FAULT_TYPES.update(before)


# ----------------------------------------------------------------------
# Hostile documents: one table, every document type
# ----------------------------------------------------------------------
CHECKPOINT = TrainerCheckpoint(
    round_index=2,
    label="HELCFL",
    strategy_class="GreedyDecaySelection",
    model_params=np.array([0.5, -1.25, 3.0]),
    cumulative_time=12.5,
    cumulative_energy=3.25,
    ledger=EnergyLedger().column_state(),
    device_ids=np.array([2, 7]),
    channel_gains=np.array([1e-7, np.nan]),
    battery_charges=np.array([4.0, 10.5]),
    selection_state={"counts": {"2": 1}},
    plateau=None,
    best_model_params=None,
    best_model_accuracy=0.0,
)
CHECKPOINT_STATE = dict(CHECKPOINT.to_state(), history=wire.dump(HistoryPrefix()))

HISTORY = TrainingHistory(
    label="HELCFL",
    stop_reason="rounds_exhausted",
    records=[
        RoundRecord(
            round_index=index,
            selected_ids=(3, 1),
            frequencies={3: 1.5e9, 1: 1.0e9},
            round_delay=2.5,
            round_energy=1.25,
            compute_energy=1.0,
            upload_energy=0.25,
            slack=0.5,
            cumulative_time=2.5 * index,
            cumulative_energy=1.25 * index,
            train_loss=2.0,
            test_accuracy=0.5,
            test_loss=1.5,
        )
        for index in (1, 2)
    ],
)

STATS = json.loads((REPO / "BENCH_scalability.json").read_text())["analytics"]
RUN_ID = "s0-helcfl-c0-f0"


def checkpoint_file(state):
    canonical = json.dumps(state, sort_keys=True, separators=(",", ":"))
    return {
        "schema": CHECKPOINT_SCHEMA,
        "version": CHECKPOINT_VERSION,
        "sha256": hashlib.sha256(canonical.encode("utf-8")).hexdigest(),
        "state": state,
    }


def status_path(tmp_path):
    manifest = CampaignManifest.create(str(tmp_path), CampaignSpec(name="x"))
    path = Path(manifest.run_dir(RUN_ID)) / "status.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    return path


def read_status(path):
    return CampaignManifest.open(str(path.parents[2])).read_status(RUN_ID)


def read_aggregate(path):
    from repro.campaign import compare_campaigns

    document = load_aggregate(str(path))
    return compare_campaigns(document, document)


EVENT = {"event": "selection", "round_index": 1, "selected_ids": [3, 1]}


def mid_stream(text):
    """``text`` as line 2 of a three-line trace."""
    return "{0}\n{1}\n{0}\n".format(json.dumps(EVENT), text)


def trace_doc(read, **at):
    return Doc(
        SerializationError,
        EVENT,
        lambda path: read(str(path)),
        place=lambda tmp_path: tmp_path / "trace.jsonl",
        frame=mid_stream,
        at=":2",
        int_at=("round_index",),
        **at,
    )


@dataclass
class Doc:
    """One document type: a valid payload, how it is filed and read back.

    ``*_at`` are JSON paths into ``good`` to a field of that declared
    kind (``None`` when the document declares none). ``frame`` turns
    one JSON text into the file's text (a trace puts it mid-stream) and
    ``at`` is what follows the path in a message (a trace's ``:<line>``).
    """

    error: type
    good: dict
    read: object
    wrap: object = staticmethod(lambda payload: payload)
    place: object = staticmethod(lambda tmp_path: tmp_path / "doc.json")
    names_file: bool = True
    frame: object = staticmethod(lambda text: text)
    at: str = ""
    checks_keys: bool = True
    list_at: Optional[tuple] = None
    num_at: Optional[tuple] = None
    int_at: Optional[tuple] = None
    required_at: Optional[tuple] = None


DOCS = {
    "fault plan": Doc(
        ConfigurationError,
        FaultPlan.load(str(REPO / "examples" / "fault_plan.json")).to_dict(),
        lambda path: FaultPlan.load(str(path)),
        list_at=("faults",),
        num_at=("faults", 2, "slowdown"),
        int_at=("seed",),
        required_at=("faults", 0, "type"),
    ),
    "campaign spec": Doc(
        ConfigurationError,
        CampaignSpec.load(
            str(REPO / "examples" / "campaign_smoke.json")
        ).to_dict(),
        lambda path: CampaignSpec.load(str(path)),
        list_at=("seeds",),
        num_at=("checkpoint_every",),
        int_at=("pool_workers",),
        required_at=("name",),
    ),
    "run spec": Doc(
        ConfigurationError,
        CampaignSpec(name="x").expand()[0].to_dict(),
        lambda path: RunSpec.from_dict(
            wire.read_json(path, ConfigurationError)
        ),
        names_file=False,
        num_at=("seed",),
        int_at=("checkpoint_every",),
        required_at=("run_id",),
    ),
    "run status": Doc(
        SerializationError,
        {"run_id": RUN_ID, "status": "running", "attempts": 1,
         "detail": "", "started_at": 12.5, "finished_at": None},
        read_status,
        place=status_path,
        num_at=("started_at",),
        int_at=("attempts",),
    ),
    "checkpoint state": Doc(
        SerializationError,
        CHECKPOINT_STATE,
        lambda path: load_checkpoint(str(path)),
        wrap=checkpoint_file,
        num_at=("cumulative_time",),
        int_at=("round_index",),
        required_at=("model_params",),
    ),
    "history": Doc(
        SerializationError,
        HISTORY.to_dict(),
        lambda path: TrainingHistory.from_dict(
            wire.read_json(path, SerializationError), str(path)
        ),
        list_at=("records",),
        num_at=("records", 1, "round_delay"),
        int_at=("records", 0, "round_index"),
        required_at=("records", 1, "train_loss"),
    ),
    "stats snapshot": Doc(
        SerializationError,
        STATS,
        lambda path: RunStats.from_dict(
            wire.read_json(path, SerializationError), str(path)
        ),
        list_at=("rounds",),
        num_at=("devices", 0, "f_max"),
        int_at=("degraded_rounds",),
        required_at=("rounds", 0, "selected_ids"),
    ),
    "span summary": Doc(
        SerializationError,
        SpanSummary(3, 0, 2, {"round": 2, "run": 1}, ("run", "r2")).to_dict(),
        lambda path: SpanSummary.from_dict(
            wire.read_json(path, SerializationError)
        ),
        names_file=False,
        list_at=("critical_path",),
        num_at=("max_depth",),
        int_at=("spans_total",),
    ),
    "aggregate": Doc(
        SerializationError,
        {
            "schema": AGGREGATE_SCHEMA,
            "name": "x",
            "runs": [
                {"run_id": RUN_ID, "seed": 0, "strategy": "helcfl",
                 "stats": STATS}
            ],
            "summary": {},
        },
        read_aggregate,
        list_at=("runs",),
        num_at=("runs", 0, "seed"),
        int_at=("runs", 0, "seed"),
        required_at=("runs", 0, "strategy"),
    ),
    "trace (load_trace)": trace_doc(
        load_trace, list_at=("selected_ids",), required_at=("selected_ids",)
    ),
    "trace (validate_trace)": trace_doc(
        validate_trace, list_at=("selected_ids",), required_at=("selected_ids",)
    ),
    # Resume cuts raw lines: it reads ``event`` and ``round_index`` only.
    "trace (truncate_trace)": trace_doc(
        lambda path: truncate_trace(path, 5), checks_keys=False
    ),
}

BAD = (ReproError, TypeError, KeyError, AttributeError, ValueError,
       RecursionError)
"""What a loader may raise at all; the assertions narrow it to the
document's one typed error (``JSONDecodeError`` is a ``ValueError``)."""


def put(payload, at, value):
    """A deep copy of ``payload`` with the value at JSON path ``at``
    replaced (``...`` deletes it)."""
    mutated = copy.deepcopy(payload)
    holder = mutated
    for key in at[:-1]:
        holder = holder[key]
    if value is ...:
        del holder[at[-1]]
    else:
        holder[at[-1]] = value
    return mutated


def load_text(doc, tmp_path, text):
    path = doc.place(tmp_path)
    path.write_text(doc.frame(text), encoding="utf-8")
    return path, doc.read


def expect_rejected(doc, tmp_path, text, *needles):
    """Loading ``text`` raises exactly ``doc.error``, naming ``needles``."""
    path, read = load_text(doc, tmp_path, text)
    with pytest.raises(BAD) as caught:
        read(path)
    assert type(caught.value) is doc.error, repr(caught.value)
    message = str(caught.value)
    for needle in needles:
        assert str(needle) in message, message
    return path


FIELD_MUTATIONS = {
    "string where a list is declared": ("list_at", "12"),
    "string where a number is declared": ("num_at", "fast"),
    "true where an int is declared": ("int_at", True),
    "float where an int is declared": ("int_at", 1.5),
    "missing required field": ("required_at", ...),
}


@pytest.mark.parametrize("name", sorted(DOCS))
class TestHostileDocuments:
    def test_the_valid_document_loads(self, name, tmp_path):
        doc = DOCS[name]
        path, read = load_text(doc, tmp_path, json.dumps(doc.wrap(doc.good)))
        assert read(path) is not None

    @pytest.mark.parametrize(
        "text",
        ("[]", "7", '"spec"', "null", '{"deep": ' + "[" * 5000 + "]" * 5000 + "}"),
        ids=("list", "number", "string", "null", "5000-deep"),
    )
    def test_wrong_top_level_names_the_file(self, name, tmp_path, text):
        doc = DOCS[name]
        expect_rejected(doc, tmp_path, text, f"{doc.place(tmp_path)}{doc.at}")

    def test_truncated_text_names_the_file(self, name, tmp_path):
        doc = DOCS[name]
        text = json.dumps(doc.wrap(doc.good))
        expect_rejected(
            doc, tmp_path, text[: len(text) // 2],
            f"{doc.place(tmp_path)}{doc.at}", "not valid JSON",
        )

    def test_unknown_key_is_named(self, name, tmp_path):
        doc = DOCS[name]
        text = json.dumps(doc.wrap(dict(doc.good, surprise=1)))
        if not doc.checks_keys:
            # Reads two keys of a raw line and checks no others.
            path, read = load_text(doc, tmp_path, text)
            assert read(path) == 3
            return
        path = expect_rejected(doc, tmp_path, text, "unknown fields", "surprise")
        if doc.names_file:
            expect_rejected(doc, tmp_path, text, path)


FIELD_CASES = [
    (name, mutation)
    for name in sorted(DOCS)
    for mutation in sorted(FIELD_MUTATIONS)
    if getattr(DOCS[name], FIELD_MUTATIONS[mutation][0]) is not None
]
CONFIG_DOCS = sorted(n for n in DOCS if DOCS[n].error is ConfigurationError)


class TestHostileFields:
    @pytest.mark.parametrize("name,mutation", FIELD_CASES)
    def test_field_mutation_names_the_key(self, name, tmp_path, mutation):
        doc = DOCS[name]
        slot, value = FIELD_MUTATIONS[mutation]
        at = getattr(doc, slot)
        text = json.dumps(doc.wrap(put(doc.good, at, value)))
        path = expect_rejected(doc, tmp_path, text, at[-1])
        if doc.names_file:
            expect_rejected(doc, tmp_path, text, f"{path}{doc.at}")

    def test_every_document_type_meets_most_of_the_table(self):
        assert {name for name, _ in FIELD_CASES} == set(DOCS)
        assert len(FIELD_CASES) >= 4 * len(DOCS)

    # State documents may record a diverged (NaN) loss; config may not.
    @pytest.mark.parametrize("name", CONFIG_DOCS)
    @pytest.mark.parametrize("constant", ("NaN", "Infinity", "-Infinity"))
    def test_config_documents_refuse_non_finite_numbers(
        self, name, tmp_path, constant
    ):
        doc = DOCS[name]
        text = json.dumps(doc.wrap(put(doc.good, doc.num_at, float(constant))))
        assert constant in text
        expect_rejected(doc, tmp_path, text, doc.num_at[-1])


class TestAtomicWrites:
    @pytest.mark.parametrize(
        "save",
        (
            lambda path: wire.write_atomic(path, "text\n"),
            FaultPlan(seed=3).save,
            CampaignSpec(name="x").save,
            lambda path: save_checkpoint(path, CHECKPOINT),
        ),
        ids=("write_atomic", "FaultPlan.save", "CampaignSpec.save",
             "save_checkpoint"),
    )
    def test_failure_mid_write_leaves_no_target_and_no_tmp(
        self, tmp_path, monkeypatch, save
    ):
        def refuse(source, target):
            raise OSError("disk full")

        monkeypatch.setattr(os, "replace", refuse)
        with pytest.raises(OSError, match="disk full"):
            save(str(tmp_path / "out.json"))
        assert list(tmp_path.iterdir()) == []

    def test_failure_mid_write_keeps_the_previous_file(
        self, tmp_path, monkeypatch
    ):
        path = tmp_path / "out.json"
        wire.write_atomic(str(path), "old\n")
        monkeypatch.setattr(
            os, "replace", lambda *args: (_ for _ in ()).throw(OSError("full"))
        )
        with pytest.raises(OSError):
            wire.write_atomic(str(path), "new\n")
        assert path.read_text() == "old\n"
        assert list(tmp_path.iterdir()) == [path]


class TestMotivationProbes:
    """Each document the parent commit loaded as something else."""

    def test_iid_string_false_is_not_true(self):
        with pytest.raises(ConfigurationError, match=r"campaign spec\.iid"):
            CampaignSpec.from_dict({"name": "x", "iid": "false"})

    def test_seeds_string_is_not_split_into_digits(self):
        with pytest.raises(ConfigurationError, match=r"campaign spec\.seeds"):
            CampaignSpec.from_dict({"name": "x", "seeds": "12"})

    def test_misspelt_faults_key_is_not_the_empty_plan(self):
        with pytest.raises(ConfigurationError, match=r"unknown fields \['fault'\]"):
            FaultPlan.from_dict({"fault": [{"type": "dropout"}]})

    def test_rounds_string_does_not_arm_rounds_one_and_two(self):
        with pytest.raises(ConfigurationError, match=r"faults\[0\]\.rounds"):
            FaultPlan.from_dict(
                {"faults": [{"type": "dropout", "rounds": "12"}]}
            )

    @pytest.mark.parametrize("device_id", (True, 1.5, "3"))
    def test_device_id_must_be_an_int(self, device_id):
        with pytest.raises(ConfigurationError, match=r"faults\[0\]\.device_id"):
            FaultPlan.from_dict(
                {"faults": [{"type": "dropout", "device_id": device_id}]}
            )

    def test_slowdown_nan_is_refused(self):
        with pytest.raises(ConfigurationError, match="slowdown must be >= 1"):
            FaultPlan.from_json(
                '{"faults": [{"type": "straggler", "slowdown": NaN}]}'
            )

    def test_status_json_holding_a_list_is_a_typed_error(self, tmp_path):
        path = status_path(tmp_path)
        path.write_text("[1,2]")
        with pytest.raises(SerializationError, match="status.json"):
            read_status(path)

    def test_torn_spec_json_is_a_typed_error(self, tmp_path):
        path = status_path(tmp_path).parents[2] / "spec.json"
        path.write_text(path.read_text()[:20])
        with pytest.raises(ConfigurationError, match="spec.json"):
            CampaignManifest.open(str(path.parent))

    def test_ledger_state_is_a_typed_error(self):
        from repro.energy.accounting import EnergyLedger

        with pytest.raises(SerializationError, match="energy-ledger"):
            EnergyLedger().load_state_dict({"devices": {"3": {"rounds": 1}}})


    def test_nested_constructor_error_names_its_element(self):
        faults = [{"type": "dropout"}, {"type": "dropout", "probability": 2.0}]
        with pytest.raises(ConfigurationError) as caught:
            FaultPlan.from_dict({"faults": faults}, "fault plan x.json")
        assert str(caught.value) == (
            "fault plan x.json.faults[1]: probability must be in (0, 1], "
            "got 2.0"
        )


TRACE_LINES = {
    "deep": "[" * 100_000 + "]" * 100_000,
    "list": "[1,2]",
    "round_index": '{"event":"timeline","round_index":"x"}',
    "garbage": '{"event": "timeline", "round_ind',
}


def timeline(round_index):
    return json.dumps({"event": "timeline", "round_index": round_index})


class TestHostileTraceLines:
    """Motivation probes of the four JSONL readers: a bad line mid-stream
    is a typed error (or, for the watcher, the end of the count); the
    same line last is the torn tail everyone but the validator forgives."""

    @pytest.fixture(params=sorted(TRACE_LINES))
    def bad_line(self, request):
        return TRACE_LINES[request.param]

    def write(self, tmp_path, *lines):
        path = tmp_path / "trace.jsonl"
        path.write_text("".join(line + "\n" for line in lines))
        return str(path)

    def test_reader_keeps_the_tail_out_of_the_values(self, bad_line):
        lines = [timeline(1), bad_line, ""]
        reader = wire.read_jsonl(lines, SerializationError, "t", line_round)
        assert list(reader) == [(1, 1)]
        assert reader.torn == bad_line
        assert re.match(r"t:2[ :]", str(reader.torn_error))
        clean = wire.read_jsonl(lines[:1], SerializationError)
        assert len(list(clean)) == 1
        assert clean.torn is None and clean.torn_error is None

    def test_watcher_counts_the_rounds_before_a_bad_line(self, tmp_path, bad_line):
        path = self.write(tmp_path, timeline(1), timeline(2), bad_line, timeline(3))
        assert scan_trace_progress(path) == 2

    def test_watcher_forgives_a_torn_tail(self, tmp_path, bad_line):
        path = self.write(tmp_path, timeline(1), timeline(2), bad_line)
        assert scan_trace_progress(path) == 2

    def test_resume_cut_names_the_line_or_drops_the_tail(self, tmp_path, bad_line):
        path = self.write(tmp_path, timeline(1), bad_line, timeline(2))
        with pytest.raises(SerializationError, match=f"{path}:2[ :]"):
            truncate_trace(path, 5)
        path = self.write(tmp_path, timeline(1), timeline(2), bad_line)
        assert truncate_trace(path, 5) == 2
        assert Path(path).read_text() == f"{timeline(1)}\n{timeline(2)}\n"

    def test_loader_keeps_the_tail_and_the_validator_refuses_it(
        self, tmp_path, bad_line
    ):
        good = json.dumps(EVENT)
        path = self.write(tmp_path, good, good, bad_line)
        trace = load_trace(path)
        assert len(trace) == 2 and trace.truncated_tail == bad_line
        with pytest.raises(SerializationError, match=f"{path}:3[ :]"):
            validate_trace(path)

    def test_validate_cli_prints_one_line_and_exits_1(
        self, tmp_path, bad_line, capsys
    ):
        path = self.write(tmp_path, json.dumps(EVENT), bad_line, json.dumps(EVENT))
        assert validate.main([path]) == 1
        captured = capsys.readouterr()
        assert f"INVALID — {path}:2" in captured.err
        assert "Traceback" not in captured.err + captured.out


class TestExportArtifacts:
    def test_files_are_written_atomically(self, tmp_path, monkeypatch):
        def refuse(source, target):
            raise OSError("disk full")

        monkeypatch.setattr(os, "replace", refuse)
        with pytest.raises(OSError, match="disk full"):
            export.save_history(HISTORY, tmp_path / "history.json")
        assert list(tmp_path.iterdir()) == []


class TestOneJsonParser:
    def test_json_is_parsed_in_wire_and_nowhere_else(self):
        root = REPO / "src" / "repro"
        offenders = [
            str(path.relative_to(root))
            for path in sorted(root.rglob("*.py"))
            if path != root / "wire.py"
            and root / "checks" not in path.parents
            and re.search(r"json\.loads?\(", path.read_text(encoding="utf-8"))
        ]
        assert offenders == []


PARENT = REPO / "tests" / "fixtures" / "parent_documents"
"""One of every file the library writes, written by the commit before
``wire.Document``/``wire.read_jsonl`` (a 3-round campaign run, the
``CHECKPOINT`` above, hand-built figure results)."""


def resave(load, save):
    def rewrite(path, out):
        save(load(str(path)), str(out))

    return rewrite


def redump(cls):
    return lambda path, out: cls.load(str(path)).save(str(out))


def rewrap(cls):
    """An artifact envelope re-written as ``export`` writes it (no
    trailing newline); the library no longer reads artifacts back."""
    return lambda path, out: out.write_text(cls.load(str(path)).to_json())


def retrace(path, out):
    assert validate_trace(str(path)) == len(load_trace(str(path)))
    lines = [json.dumps(e.to_dict()) for e in load_trace(str(path)).events]
    out.write_text("".join(line + "\n" for line in lines))


PARENT_FILES = {
    "fault_plan.json": redump(FaultPlan),
    "spec.json": redump(CampaignSpec),
    "status.json": redump(RunStatus),
    "history.json": redump(TrainingHistory),
    "stats.json": redump(RunStats),
    "aggregate.json": redump(_Aggregate),
    # Version 1: it loads, and the loaded state re-saves as version 1
    # byte for byte; saving writes version 2 (see TestCheckpointVersions).
    "checkpoint.json": resave(
        load_checkpoint, lambda loaded, out: save_checkpoint_v1(out, loaded)
    ),
    "span_summary.json": lambda path, out: out.write_text(
        SpanSummary.load(str(path)).to_json() + "\n"
    ),
    "trace.jsonl": retrace,
    "export_history.json": rewrap(export._HistoryFile),
    "export_fig2.json": rewrap(export._Fig2File),
    "export_table1.json": rewrap(export._Table1File),
    "export_fig3.json": rewrap(export._Fig3File),
}


class TestRegressionFixtures:
    """Bytes and old files the refactor must keep reading and writing."""

    def test_every_parent_file_has_a_row(self):
        assert {path.name for path in PARENT.iterdir()} == set(PARENT_FILES)

    def test_every_document_class_is_among_the_parent_files(self):
        # A new Document class needs its parent-written (or first) file
        # above. RunSpec has no file of its own: it ships inside a pool
        # task and is re-expanded from spec.json.
        assert {
            cls.__name__
            for cls in RECORDS.values()
            if issubclass(cls, wire.Document)
        } == {
            "FaultPlan", "CampaignSpec", "RunSpec", "RunStatus",
            "TrainingHistory", "RunStats", "SpanSummary", "_Aggregate",
            "_CheckpointFile", "_Artifact",
        }

    @pytest.mark.parametrize("name", sorted(PARENT_FILES))
    def test_parent_written_file_loads_and_rewrites_byte_for_byte(
        self, name, tmp_path
    ):
        PARENT_FILES[name](PARENT / name, tmp_path / name)
        assert (tmp_path / name).read_bytes() == (PARENT / name).read_bytes()

    def test_to_json_is_the_saved_file_without_its_newline(self):
        for name, cls in (
            ("fault_plan.json", FaultPlan), ("spec.json", CampaignSpec),
            ("status.json", RunStatus), ("history.json", TrainingHistory),
            ("stats.json", RunStats), ("aggregate.json", _Aggregate),
            ("span_summary.json", SpanSummary),
        ):
            text = (PARENT / name).read_text()
            assert cls.load(str(PARENT / name)).to_json() + "\n" == text, name
            assert cls.from_json(text).to_json() + "\n" == text, name

    def test_example_fault_plan_redumps_to_the_parents_dict(self):
        plan = FaultPlan.load(str(REPO / "examples" / "fault_plan.json"))
        base = {"device_id": None, "rounds": None}
        assert plan.to_dict() == {
            "seed": 42,
            "faults": [
                {"type": "dropout", **base, "probability": 0.05,
                 "phase": "before_compute", "progress": 0.5},
                {"type": "dropout", **base, "probability": 0.03,
                 "phase": "during_compute", "progress": 0.6},
                {"type": "straggler", **base, "probability": 0.1,
                 "slowdown": 2.5},
                {"type": "channel", **base, "probability": 0.1,
                 "mode": "degrade", "rate_scale": 0.5},
                {"type": "channel", **base, "probability": 0.02,
                 "mode": "outage", "rate_scale": 0.5},
                {"type": "battery_death", "device_id": 3, "rounds": [20],
                 "probability": 1.0},
            ],
        }
        assert [list(f)[0] for f in plan.to_dict()["faults"]] == ["type"] * 6
        assert FaultPlan.from_json(plan.to_json()) == plan

    def test_example_campaign_spec_redumps_to_the_parents_dict(self):
        spec = CampaignSpec.load(str(REPO / "examples" / "campaign_smoke.json"))
        assert spec.to_dict() == {
            "name": "smoke",
            "profile": "quick",
            "iid": True,
            "seeds": [0, 1],
            "strategies": ["helcfl", "classic"],
            "overrides": [
                {"settings": {"num_users": 8, "rounds": 6, "train_size": 160,
                              "test_size": 48, "eval_every": 2}},
                {"settings": {"num_users": 8, "rounds": 6, "train_size": 160,
                              "test_size": 48, "eval_every": 2},
                 "trainer": {"convergence_patience": 1,
                             "convergence_min_delta": 0.2}},
            ],
            "fault_plans": [None],
            "backend": "serial",
            "workers": None,
            "checkpoint_every": 1,
            "pool_workers": 2,
            "max_retries": 2,
        }
        assert CampaignSpec.from_dict(json.loads(spec.to_json())) == spec

    def test_status_file_without_timestamps_still_loads(self, tmp_path):
        path = status_path(tmp_path)
        path.write_text('{"attempts": 2, "detail": "", "run_id": "%s", '
                        '"status": "done"}\n' % RUN_ID)
        status = read_status(path)
        assert (status.status, status.attempts) == ("done", 2)
        assert status.started_at is None and status.elapsed() is None

    def test_checkpoint_state_equals_the_hand_written_layout(self):
        assert CHECKPOINT.to_state() == {
            "round_index": 2,
            "label": "HELCFL",
            "strategy_class": "GreedyDecaySelection",
            "model_params": {
                "dtype": "float64",
                "shape": [3],
                "data": "AAAAAAAA4D8AAAAAAAD0vwAAAAAAAAhA",
            },
            "cumulative_time": 12.5,
            "cumulative_energy": 3.25,
            "ledger": {
                "device_ids": {"dtype": "int64", "shape": [0], "data": ""},
                "compute_joules": {"dtype": "float64", "shape": [0], "data": ""},
                "upload_joules": {"dtype": "float64", "shape": [0], "data": ""},
                "rounds": {"dtype": "int64", "shape": [0], "data": ""},
                "slack_seconds": {"dtype": "float64", "shape": [0], "data": ""},
                "rounds_recorded": 0,
            },
            "device_ids": {
                "dtype": "int64", "shape": [2], "data": "AgAAAAAAAAAHAAAAAAAAAA=="
            },
            "channel_gains": {
                "dtype": "float64", "shape": [2], "data": "SK+8mvLXej4AAAAAAAD4fw=="
            },
            "battery_charges": {
                "dtype": "float64", "shape": [2], "data": "AAAAAAAAEEAAAAAAAAAlQA=="
            },
            "selection_state": {"counts": {"2": 1}},
            "plateau": None,
            "best_model_params": None,
            "best_model_accuracy": 0.0,
        }

    def test_history_json_keeps_its_key_order(self):
        assert list(HISTORY.to_dict()) == ["label", "stop_reason", "records"]
        assert TrainingHistory.from_json(HISTORY.to_json()).to_json() == (
            HISTORY.to_json()
        )
